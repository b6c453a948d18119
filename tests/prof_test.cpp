// Unit tests for correlation, CCT merging and summarization.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <tuple>

#include "pathview/support/error.hpp"

#include "pathview/db/experiment.hpp"
#include "pathview/ensemble/ensemble.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/prof/summarize.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/workloads/mesh.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"
#include "pathview/workloads/subsurface.hpp"

namespace pathview::prof {
namespace {

using model::Event;

TEST(Correlate, PreservesSampleTotals) {
  workloads::PaperExample ex;
  const CanonicalCct cct = correlate(ex.profile(), ex.tree());
  EXPECT_EQ(cct.totals()[Event::kCycles],
            ex.profile().totals()[Event::kCycles]);
}

TEST(Correlate, RootInclusiveEqualsTotals) {
  workloads::PaperExample ex;
  const CanonicalCct cct = correlate(ex.profile(), ex.tree());
  const auto incl = cct.inclusive_samples();
  EXPECT_EQ(incl[kCctRoot][Event::kCycles], 10.0);
}

TEST(Correlate, DistinguishesCallingContexts) {
  workloads::PaperExample ex;
  const CanonicalCct cct = correlate(ex.profile(), ex.tree());
  // g appears in three distinct frame contexts (g1, g2, g3).
  int g_frames = 0;
  cct.walk([&](CctNodeId id, int) {
    const CctNode& n = cct.node(id);
    if (n.kind == CctKind::kFrame && cct.tree().name_of(n.scope) == "g")
      ++g_frames;
  });
  EXPECT_EQ(g_frames, 3);
}

TEST(Correlate, InlineScopesAppearInContext) {
  workloads::MeshWorkload w = workloads::make_mesh();
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const CanonicalCct cct = correlate(eng.run(), *w.tree);
  // get_coords' samples flow through kInline scopes (find, compare).
  int inline_nodes = 0;
  cct.walk([&](CctNodeId id, int) {
    if (cct.node(id).kind == CctKind::kInline) ++inline_nodes;
  });
  EXPECT_GE(inline_nodes, 2);
}

TEST(Merge, TotalsAreAdditive) {
  workloads::Workload w = workloads::make_random_program({.seed = 10});
  sim::ParallelConfig pc;
  pc.nranks = 3;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  PipelineOptions popts;
  popts.nthreads = 2;
  const Pipeline pipeline(popts);
  const auto parts = pipeline.correlate(raws, *w.tree);
  const CanonicalCct merged = pipeline.merge(parts);
  double expect = 0;
  for (const auto& p : parts) expect += p.totals()[Event::kCycles];
  EXPECT_DOUBLE_EQ(merged.totals()[Event::kCycles], expect);
}

TEST(Merge, PipelineMatchesSerialOracle) {
  // The reduction-tree merge must reproduce the serial left fold exactly.
  workloads::Workload w = workloads::make_random_program({.seed = 10});
  sim::ParallelConfig pc;
  pc.nranks = 2;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  PipelineOptions popts;
  popts.nthreads = 2;
  const Pipeline pipeline(popts);
  const CanonicalCct merged = pipeline.merge(pipeline.correlate(raws, *w.tree));
  const CanonicalCct ref = merge_serial(Pipeline().correlate(raws, *w.tree));
  ASSERT_EQ(merged.size(), ref.size());
  EXPECT_EQ(merged.totals()[Event::kCycles], ref.totals()[Event::kCycles]);
}

TEST(Merge, IsIdempotentOnStructure) {
  workloads::Workload w = workloads::make_random_program({.seed = 11});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const CanonicalCct a = correlate(eng.run(), *w.tree);
  CanonicalCct u(&*w.tree);
  u.merge(a);
  const std::size_t size_once = u.size();
  u.merge(a);  // same shape again: no new nodes, doubled samples
  EXPECT_EQ(u.size(), size_once);
  EXPECT_DOUBLE_EQ(u.totals()[Event::kCycles],
                   2 * a.totals()[Event::kCycles]);
}

TEST(Merge, RejectsDifferentTrees) {
  workloads::Workload w1 = workloads::make_random_program({.seed = 12});
  workloads::Workload w2 = workloads::make_random_program({.seed = 12});
  sim::ExecutionEngine eng(*w1.program, *w1.lowering, w1.run);
  const CanonicalCct a = correlate(eng.run(), *w1.tree);
  CanonicalCct u(&*w2.tree);
  EXPECT_THROW(u.merge(a), InvalidArgument);
}

TEST(CloneWithTree, ProducesIdenticalShape) {
  workloads::PaperExample ex;
  const CanonicalCct cct = correlate(ex.profile(), ex.tree());
  structure::StructureTree tree_copy = ex.tree();
  const CanonicalCct clone = cct.clone_with_tree(&tree_copy);
  ASSERT_EQ(clone.size(), cct.size());
  for (CctNodeId i = 0; i < cct.size(); ++i) {
    EXPECT_EQ(clone.node(i).scope, cct.node(i).scope);
    EXPECT_EQ(clone.samples(i)[Event::kCycles], cct.samples(i)[Event::kCycles]);
  }
  EXPECT_EQ(&clone.tree(), &tree_copy);
}

// --- the flat sibling index against a std::map oracle ----------------------

/// Reference CCT: nodes in a vector, the sibling index in a std::map whose
/// first insert per key wins — CanonicalCct's documented semantics.
struct RefCct {
  struct Node {
    CctKind kind;
    CctNodeId parent;
    structure::SNodeId scope, call_site;
    std::vector<CctNodeId> children;
    double samples = 0;
  };
  using Key = std::tuple<CctNodeId, CctKind, structure::SNodeId,
                         structure::SNodeId>;
  std::vector<Node> nodes{
      Node{CctKind::kRoot, kCctNull, structure::kSNull, structure::kSNull}};
  std::map<Key, CctNodeId> index;

  CctNodeId add(CctNodeId p, CctKind k, structure::SNodeId s,
                structure::SNodeId cs) {
    const auto id = static_cast<CctNodeId>(nodes.size());
    nodes.push_back(Node{k, p, s, cs});
    nodes[p].children.push_back(id);
    index.try_emplace(Key{p, k, s, cs}, id);
    return id;
  }
  CctNodeId find_or_add(CctNodeId p, CctKind k, structure::SNodeId s,
                        structure::SNodeId cs) {
    const auto it = index.find(Key{p, k, s, cs});
    return it != index.end() ? it->second : add(p, k, s, cs);
  }
  std::vector<CctNodeId> merge(const RefCct& o) {
    std::vector<CctNodeId> map(o.nodes.size(), kCctNull);
    map[kCctRoot] = kCctRoot;
    nodes[kCctRoot].samples += o.nodes[kCctRoot].samples;
    for (CctNodeId id = 1; id < o.nodes.size(); ++id) {
      const Node& n = o.nodes[id];
      map[id] = find_or_add(map[n.parent], n.kind, n.scope, n.call_site);
      nodes[map[id]].samples += n.samples;
    }
    return map;
  }
};

void expect_same(const CanonicalCct& got, const RefCct& want) {
  ASSERT_EQ(got.size(), want.nodes.size());
  for (CctNodeId id = 0; id < got.size(); ++id) {
    const CctNode& g = got.node(id);
    const RefCct::Node& w = want.nodes[id];
    ASSERT_EQ(g.kind, w.kind) << id;
    ASSERT_EQ(g.parent, w.parent) << id;
    ASSERT_EQ(g.scope, w.scope) << id;
    ASSERT_EQ(g.call_site, w.call_site) << id;
    ASSERT_EQ(g.children, w.children) << id;
    ASSERT_EQ(got.samples(id)[Event::kCycles], w.samples) << id;
  }
}

/// Random find_or_add_child / append_child / merge / move-merge /
/// clone_with_tree sequences over a small key space (so lookups hit often),
/// including duplicate appends that the lazily caught-up index must resolve
/// to the lowest id. Thousands of nodes: the index grows past several powers
/// of two.
TEST(CctIndexOracle, RandomOperationSequencesMatchStdMap) {
  const structure::StructureTree tree;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    const auto random_key = [&](std::size_t size) {
      const auto p = static_cast<CctNodeId>(pick(size));
      const auto k = static_cast<CctKind>(1 + pick(4));
      const auto s = static_cast<structure::SNodeId>(pick(6));
      const structure::SNodeId cs =
          pick(3) == 0 ? structure::kSNull
                       : static_cast<structure::SNodeId>(pick(4));
      return std::tuple{p, k, s, cs};
    };
    // A small random CCT (and its reference) to merge in.
    const auto random_part = [&](CanonicalCct& c, RefCct& r, int ops) {
      for (int i = 0; i < ops; ++i) {
        const auto [p, k, s, cs] = random_key(c.size());
        const CctNodeId id = c.find_or_add_child(p, k, s, cs);
        ASSERT_EQ(id, r.find_or_add(p, k, s, cs));
        model::EventVector ev;
        ev[Event::kCycles] = static_cast<double>(1 + pick(9));
        c.add_samples(id, ev);
        r.nodes[id].samples += ev[Event::kCycles];
      }
    };

    CanonicalCct cct(&tree);
    RefCct ref;
    for (int op = 0; op < 6000; ++op) {
      const std::uint64_t dice = pick(100);
      if (dice < 70) {
        random_part(cct, ref, 1);
      } else if (dice < 88) {
        const auto [p, k, s, cs] = random_key(cct.size());
        ASSERT_EQ(cct.append_child(p, k, s, cs), ref.add(p, k, s, cs));
      } else if (dice < 94) {
        CanonicalCct part(&tree);
        RefCct rpart;
        random_part(part, rpart, 40);
        ASSERT_EQ(cct.merge(part), ref.merge(rpart));
      } else if (dice < 97) {
        // Move-merge into a fresh tree steals the whole state, index and
        // duplicates included.
        CanonicalCct fresh(&tree);
        const std::vector<CctNodeId> map = fresh.merge(std::move(cct));
        ASSERT_EQ(map.size(), ref.nodes.size());
        for (CctNodeId i = 0; i < map.size(); ++i) ASSERT_EQ(map[i], i);
        cct = std::move(fresh);
        // Move-merge into a non-empty tree falls back to the keyed merge.
        CanonicalCct part(&tree);
        RefCct rpart;
        random_part(part, rpart, 20);
        ASSERT_EQ(cct.merge(std::move(part)), ref.merge(rpart));
      } else {
        cct = cct.clone_with_tree(&tree);
      }
      if (op % 500 == 0) expect_same(cct, ref);
    }
    expect_same(cct, ref);
    EXPECT_GT(cct.size(), 4000u) << "seed " << seed;
  }
}

// --- correlate against its two-pass keyed oracle ----------------------------

/// The keyed reference for correlate(): build the full CCT, then rebuild
/// every node with nonzero inclusive samples into a second tree through
/// find_or_add_child, static chains from path_from_proc.
CanonicalCct correlate_reference(const sim::RawProfile& raw,
                                 const structure::StructureTree& tree) {
  CanonicalCct cct(&tree);
  const auto insert_chain = [&](CctNodeId at, structure::SNodeId stmt) {
    const auto path = tree.path_from_proc(stmt);
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const CctKind kind = tree.node(path[i]).kind == structure::SKind::kLoop
                               ? CctKind::kLoop
                               : CctKind::kInline;
      at = cct.find_or_add_child(at, kind, path[i]);
    }
    return at;
  };
  const auto& trie = raw.nodes();
  std::vector<CctNodeId> frame_of(trie.size(), kCctNull);
  frame_of[sim::kRawRoot] = cct.root();
  for (sim::NodeIndex i = 1; i < trie.size(); ++i) {
    CctNodeId at = frame_of[trie[i].parent];
    structure::SNodeId call_site = structure::kSNull;
    if (trie[i].call_site != 0) {
      call_site = tree.stmt_of_addr(trie[i].call_site);
      at = insert_chain(at, call_site);
    }
    frame_of[i] = cct.find_or_add_child(
        at, CctKind::kFrame, tree.proc_of_entry(trie[i].callee_entry),
        call_site);
  }
  for (const sim::RawProfile::Cell& cell : raw.cells()) {
    const structure::SNodeId stmt = tree.stmt_of_addr(cell.leaf);
    const CctNodeId at = insert_chain(frame_of[cell.node], stmt);
    cct.add_samples(cct.find_or_add_child(at, CctKind::kStmt, stmt),
                    cell.counts);
  }
  const std::vector<model::EventVector> incl = cct.inclusive_samples();
  CanonicalCct pruned(&tree);
  std::vector<CctNodeId> map(cct.size(), kCctNull);
  map[kCctRoot] = pruned.root();
  for (CctNodeId id = 1; id < cct.size(); ++id) {
    const CctNode& n = cct.node(id);
    if (incl[id].all_zero() || map[n.parent] == kCctNull) continue;
    map[id] =
        pruned.find_or_add_child(map[n.parent], n.kind, n.scope, n.call_site);
    pruned.add_samples(map[id], cct.samples(id));
  }
  return pruned;
}

/// Node fields, child lists and sample bits, node by node.
void expect_identical(const CanonicalCct& got, const CanonicalCct& want) {
  ASSERT_EQ(got.size(), want.size());
  for (CctNodeId id = 0; id < got.size(); ++id) {
    const CctNode& g = got.node(id);
    const CctNode& w = want.node(id);
    ASSERT_EQ(g.kind, w.kind) << id;
    ASSERT_EQ(g.parent, w.parent) << id;
    ASSERT_EQ(g.scope, w.scope) << id;
    ASSERT_EQ(g.call_site, w.call_site) << id;
    ASSERT_EQ(g.children, w.children) << id;
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.samples(id).v[e]),
                std::bit_cast<std::uint64_t>(want.samples(id).v[e]))
          << id;
  }
}

TEST(CorrelateOracle, MatchesKeyedRebuildOnRandomPrograms) {
  for (const std::uint64_t seed : {3u, 17u, 29u, 41u}) {
    SCOPED_TRACE(seed);
    workloads::Workload w = workloads::make_random_program(
        {.seed = seed, .num_procs = 12, .max_stmt_depth = 4});
    sim::ParallelConfig pc;
    pc.nranks = 3;
    pc.base = w.run;
    const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
    std::vector<CanonicalCct> want;
    for (const sim::RawProfile& raw : raws) {
      want.push_back(correlate_reference(raw, *w.tree));
      expect_identical(correlate(raw, *w.tree), want.back());
    }
    PipelineOptions popts;
    popts.nthreads = 2;
    expect_identical(Pipeline(popts).run(raws, *w.tree), merge_serial(want));
  }
}

TEST(CorrelateOracle, CompactsUnsampledFrameChains) {
  workloads::Workload w = workloads::make_random_program({.seed = 5});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  sim::RawProfile raw = eng.run();
  const std::vector<sim::RawProfile::Cell> cells = raw.cells();
  ASSERT_GE(cells.size(), 2u);
  const std::size_t frames = raw.nodes().size();
  // Unsampled frame chains below existing frames, re-entering each frame's
  // own (call site, callee) so every address resolves.
  for (sim::NodeIndex n = 1; n < frames; n += 2) {
    const sim::TrieNode tn = raw.nodes()[n];
    if (tn.call_site == 0) continue;
    const sim::NodeIndex a = raw.child(n, tn.call_site, tn.callee_entry);
    raw.child(a, tn.call_site, tn.callee_entry);
  }
  // A frame whose samples cancel: its inclusive total is zero, so it is
  // pruned together with the (nonzero) statement scopes below it.
  const sim::TrieNode last = raw.nodes()[frames - 1];
  const sim::NodeIndex cancel =
      raw.child(frames - 1, last.call_site, last.callee_entry);
  raw.add_sample(cancel, cells[0].leaf, Event::kCycles, 1.0);
  raw.add_sample(cancel, cells[1].leaf, Event::kCycles, -1.0);

  const CanonicalCct got = correlate(raw, *w.tree);
  expect_identical(got, correlate_reference(raw, *w.tree));
  // The compaction really ran: the raw trie has more frames than survive.
  std::size_t kept_frames = 0;
  for (CctNodeId id = 0; id < got.size(); ++id)
    kept_frames += got.node(id).kind == CctKind::kFrame;
  EXPECT_LT(kept_frames + 1, raw.nodes().size());
  EXPECT_DOUBLE_EQ(got.totals()[Event::kCycles], raw.totals()[Event::kCycles]);
}

// --- the frame list against a scan of node kinds ---------------------------

/// Frame-like node ids in id order, and for each the position of its nearest
/// frame-like proper ancestor, found by walking parents over the whole tree.
/// Returns how many of the frames are inline ones.
std::size_t expect_frame_list(const CanonicalCct& cct, const std::string& what) {
  std::vector<CctNodeId> frames;
  std::vector<std::uint32_t> parents;
  std::vector<std::uint32_t> pos(cct.size(), CanonicalCct::kNoFrame);
  std::size_t inlines = 0;
  for (CctNodeId id = 1; id < cct.size(); ++id) {
    const CctKind k = cct.node(id).kind;
    if (k != CctKind::kFrame && k != CctKind::kInline) continue;
    inlines += k == CctKind::kInline;
    CctNodeId up = cct.node(id).parent;
    while (up != kCctRoot && pos[up] == CanonicalCct::kNoFrame)
      up = cct.node(up).parent;
    pos[id] = static_cast<std::uint32_t>(frames.size());
    frames.push_back(id);
    parents.push_back(pos[up]);
  }
  EXPECT_FALSE(frames.empty()) << what;
  EXPECT_EQ(cct.frames(), frames) << what;
  EXPECT_EQ(cct.frame_parents(), parents) << what;
  return inlines;
}

TEST(Cct, FrameListMatchesKindScan) {
  std::size_t inlines = 0;
  for (const std::uint64_t seed : {3u, 21u}) {
    const std::string tag = "seed " + std::to_string(seed) + ": ";
    workloads::Workload w = workloads::make_random_program({.seed = seed});
    sim::ParallelConfig pc;
    pc.nranks = 4;
    pc.base = w.run;
    const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);

    // The find_or_add_child fold: correlation, then merging copies.
    std::vector<CanonicalCct> parts = Pipeline().correlate(raws, *w.tree);
    for (const CanonicalCct& part : parts)
      inlines += expect_frame_list(part, tag + "correlate");
    const CanonicalCct serial = merge_serial(parts);
    expect_frame_list(serial, tag + "merge_serial");
    for (const std::uint32_t threads : {1u, 4u}) {
      PipelineOptions opts;
      opts.nthreads = threads;
      expect_frame_list(Pipeline(std::move(opts)).run(raws, *w.tree),
                        tag + "run, threads " + std::to_string(threads));
    }

    // Moving a part into an empty tree steals its list.
    CanonicalCct stolen(w.tree.get());
    stolen.merge(std::move(parts[1]));
    expect_frame_list(stolen, tag + "merge(&&)");

    const auto a = std::make_shared<const db::Experiment>(
        db::Experiment::capture(*w.tree, serial, "frames", pc.nranks));
    const db::Experiment& exp = *a;
    expect_frame_list(exp.cct().clone_with_tree(&exp.tree()),
                      tag + "clone_with_tree");
    expect_frame_list(
        db::from_binary(db::to_binary(exp, db::BinaryVersion::kV1)).cct(),
        tag + "PVDB1");
    expect_frame_list(db::from_binary(db::to_binary(exp)).cct(),
                      tag + "PVDB2");
    expect_frame_list(db::from_xml(db::to_xml(exp)).cct(), tag + "XML");

    // The ensemble supergraph over two different programs.
    workloads::Workload other =
        workloads::make_random_program({.seed = seed + 100});
    sim::ExecutionEngine eng(*other.program, *other.lowering, other.run);
    const auto b = std::make_shared<const db::Experiment>(
        db::Experiment::capture(*other.tree, correlate(eng.run(), *other.tree),
                                "other", 1));
    expect_frame_list(ensemble::Ensemble::align({a, b}).cct(),
                      tag + "ensemble");
  }
  EXPECT_GT(inlines, 0u);  // inline frames are listed too
}

TEST(Summarize, StatsCoverAllRanks) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(8);
  sim::ParallelConfig pc;
  pc.nranks = w.nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const SummaryCct sum = summarize(raws, *w.tree, 2);
  EXPECT_EQ(sum.nranks, 8u);
  for (CctNodeId n = 0; n < sum.cct.size(); ++n)
    EXPECT_EQ(sum.stats(n, Event::kCycles).count(), 8u);
}

TEST(Summarize, RootMeanEqualsMeanOfRankTotals) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(6);
  sim::ParallelConfig pc;
  pc.nranks = w.nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const SummaryCct sum = summarize(raws, *w.tree, 2);
  double total = 0;
  for (const auto& r : raws) total += r.totals()[Event::kCycles];
  EXPECT_NEAR(sum.stats(kCctRoot, Event::kCycles).mean(), total / 6.0, 1e-6);
  EXPECT_NEAR(sum.stats(kCctRoot, Event::kCycles).sum(), total, 1e-6);
}

TEST(Summarize, DetectsInjectedImbalance) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(16);
  sim::ParallelConfig pc;
  pc.nranks = w.nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const SummaryCct sum = summarize(raws, *w.tree, 2);
  // Some rank idles (factors differ), so idle stddev at the root is > 0.
  EXPECT_GT(sum.stats(kCctRoot, Event::kIdle).stddev(), 0.0);
  EXPECT_GT(sum.stats(kCctRoot, Event::kIdle).sum(), 0.0);
}

TEST(Summarize, RejectsEmpty) {
  workloads::PaperExample ex;
  const std::vector<sim::RawProfile> empty;
  EXPECT_THROW(summarize(empty, ex.tree()), InvalidArgument);
}

}  // namespace
}  // namespace pathview::prof
