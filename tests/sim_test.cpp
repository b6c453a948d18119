// Unit tests for the execution engine and asynchronous sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "pathview/db/measurement.hpp"
#include "pathview/model/builder.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pathview::sim {
namespace {

using model::Event;
using model::make_cost;

/// p() { work(3); q(); }  q() { for(2) work(2); }
model::Program two_proc_program() {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto q = b.proc("q", file, 10);
  b.in(p).compute(2, make_cost(3)).call(3, q);
  const auto loop = b.in(q).loop(11, 2);
  b.in(q, loop).compute(12, make_cost(2, 1));
  b.set_entry(p);
  return b.finish();
}

TEST(Engine, ExactAttributionAtPeriodOne) {
  const model::Program prog = two_proc_program();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.sampler.sample(Event::kInstructions, 1.0);
  ExecutionEngine eng(prog, aspace, cfg);
  const RawProfile raw = eng.run();

  // work(3) + 2 * work(2) cycles; 2 * 1 instructions.
  EXPECT_EQ(raw.totals()[Event::kCycles], 7.0);
  EXPECT_EQ(raw.totals()[Event::kInstructions], 2.0);
  EXPECT_EQ(eng.true_totals()[Event::kCycles], 7.0);
  EXPECT_EQ(raw.sample_count(Event::kCycles), 7u);
  // Frames: root + p + q.
  EXPECT_EQ(raw.nodes().size(), 3u);
}

TEST(Engine, SampledTotalsApproximateTrueTotals) {
  const model::Program prog = [] {
    model::ProgramBuilder b;
    const auto file = b.file("x.c", b.module("a.out"));
    const auto p = b.proc("p", file, 1);
    const auto loop = b.in(p).loop(2, 1000);
    b.in(p, loop).compute(3, make_cost(137.0));
    b.set_entry(p);
    return b.finish();
  }();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1000.0);  // coarse period
  cfg.sampler.random_phase = true;
  ExecutionEngine eng(prog, aspace, cfg);
  const RawProfile raw = eng.run();
  const double truth = eng.true_totals()[Event::kCycles];
  EXPECT_NEAR(raw.totals()[Event::kCycles], truth, 2000.0);
  EXPECT_GT(truth, 130000.0);
}

TEST(Engine, DeterministicForSameSeed) {
  workloads::Workload w = workloads::make_random_program({.seed = 77});
  RunConfig cfg = w.run;
  ExecutionEngine a(*w.program, *w.lowering, cfg);
  ExecutionEngine b(*w.program, *w.lowering, cfg);
  const auto ca = a.run().cells();
  const auto cb = b.run().cells();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].node, cb[i].node);
    EXPECT_EQ(ca[i].leaf, cb[i].leaf);
    EXPECT_EQ(ca[i].counts[Event::kCycles], cb[i].counts[Event::kCycles]);
  }
}

TEST(Engine, RecursionBoundedByMaxDepth) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  b.in(p).compute(2, make_cost(1)).call(3, p, {.max_rec_depth = 5});
  b.set_entry(p);
  const model::Program prog = b.finish();

  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  ExecutionEngine eng(prog, aspace, cfg);
  const RawProfile raw = eng.run();
  // 5 live frames max -> 5 executions of work(1); trie: root + 5 frames.
  EXPECT_EQ(raw.totals()[Event::kCycles], 5.0);
  EXPECT_EQ(raw.nodes().size(), 6u);
}

TEST(Engine, StackDepthLimitStopsCalls) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  b.in(p).compute(2, make_cost(1)).call(3, p, {.max_rec_depth = 1000000});
  b.set_entry(p);
  const model::Program prog = b.finish();

  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.max_stack_depth = 16;
  ExecutionEngine eng(prog, aspace, cfg);
  EXPECT_EQ(eng.run().totals()[Event::kCycles], 16.0);
}

TEST(Engine, CallProbabilityZeroNeverCalls) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto q = b.proc("q", file, 10);
  b.in(p).compute(2, make_cost(1)).call(3, q, {.prob = 0.0});
  b.in(q).compute(11, make_cost(100));
  b.set_entry(p);
  const model::Program prog = b.finish();

  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  ExecutionEngine eng(prog, aspace, cfg);
  EXPECT_EQ(eng.run().totals()[Event::kCycles], 1.0);
}

TEST(Engine, RequiresASampledEvent) {
  const model::Program prog = two_proc_program();
  model::IdentityAddressSpace aspace;
  EXPECT_THROW(ExecutionEngine(prog, aspace, RunConfig{}), InvalidArgument);
}

TEST(Engine, CostTransformApplies) {
  const model::Program prog = two_proc_program();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.cost_transform = [](std::uint32_t, std::uint32_t, model::StmtId,
                          const model::EventVector& base) {
    return base * 3.0;
  };
  ExecutionEngine eng(prog, aspace, cfg);
  EXPECT_EQ(eng.run().totals()[Event::kCycles], 21.0);
}

TEST(Sampler, PeriodAttributionGranularity) {
  // A 10-cycle statement sampled at period 4: accumulate 10 -> 2 samples,
  // carry 2 into the next visit.
  SamplerConfig cfg;
  cfg.sample(Event::kCycles, 4.0);
  Prng prng(1);
  Sampler s(cfg, prng);
  int fired = 0;
  const auto fire = [&](Event, double v) {
    EXPECT_EQ(v, 4.0);
    ++fired;
  };
  s.charge(make_cost(10), fire);
  EXPECT_EQ(fired, 2);
  s.charge(make_cost(10), fire);  // carry 2 + 10 = 12 -> 3 more
  EXPECT_EQ(fired, 5);
}

TEST(ParallelRunner, OneProfilePerRank) {
  workloads::Workload w = workloads::make_random_program(
      {.seed = 3, .random_call_probs = false});
  ParallelConfig pc;
  pc.nranks = 5;
  pc.base = w.run;
  pc.nthreads = 2;
  const std::vector<RawProfile> profiles =
      run_parallel(*w.program, *w.lowering, pc);
  ASSERT_EQ(profiles.size(), 5u);
  for (std::uint32_t r = 0; r < 5; ++r) {
    EXPECT_EQ(profiles[r].rank, r);
    EXPECT_GT(profiles[r].totals()[Event::kCycles], 0.0);
  }
}

TEST(ParallelRunner, ThreadCountDoesNotChangeResults) {
  workloads::Workload w = workloads::make_random_program({.seed = 4});
  ParallelConfig pc;
  pc.nranks = 4;
  pc.base = w.run;
  pc.nthreads = 1;
  const auto seq = run_parallel(*w.program, *w.lowering, pc);
  pc.nthreads = 4;
  const auto par = run_parallel(*w.program, *w.lowering, pc);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(seq[r].totals()[Event::kCycles],
              par[r].totals()[Event::kCycles]);
    EXPECT_EQ(seq[r].cells().size(), par[r].cells().size());
  }
}

TEST(ParallelRunner, RejectsZeroRanks) {
  workloads::Workload w = workloads::make_random_program({.seed = 5});
  ParallelConfig pc;
  pc.base = w.run;
  pc.nranks = 0;
  EXPECT_THROW(run_parallel(*w.program, *w.lowering, pc), InvalidArgument);
}

TEST(ParallelRunner, WorkerErrorIsRethrownAfterJoin) {
  // Every rank's engine rejects a config with no sampled event; with a
  // multi-thread pool the error surfaces here instead of terminating.
  workloads::Workload w = workloads::make_random_program({.seed = 5});
  ParallelConfig pc;
  pc.nranks = 6;
  pc.nthreads = 4;
  EXPECT_THROW(run_parallel(*w.program, *w.lowering, pc), InvalidArgument);
}

TEST(RawProfile, CellsAreDeterministicallyOrdered) {
  RawProfile p;
  const auto a = p.child(kRawRoot, 0, 100);
  const auto b = p.child(a, 8, 200);
  p.add_sample(b, 50, Event::kCycles, 1);
  p.add_sample(a, 40, Event::kCycles, 1);
  p.add_sample(b, 30, Event::kCycles, 1);
  EXPECT_THROW(p.cells(), InvalidArgument);
  p.sort_cells();
  const auto cells = p.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_TRUE(cells[0].node < cells[1].node ||
              (cells[0].node == cells[1].node && cells[0].leaf < cells[1].leaf));
  // find-or-insert is idempotent
  EXPECT_EQ(p.child(kRawRoot, 0, 100), a);
}

/// The simulator inserts cells in execution order, not key order; cells()
/// must still return them sorted, with counts accumulated per cell and
/// totals() equal to their sum.
TEST(RawProfile, SimulatedCellsComeBackSortedWithUnchangedTotals) {
  workloads::Workload w = workloads::make_random_program({.seed = 33});
  RunConfig cfg = w.run;
  cfg.sampler = SamplerConfig{};
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.sampler.sample(Event::kInstructions, 1.0);
  ExecutionEngine eng(*w.program, *w.lowering, cfg);
  const RawProfile raw = eng.run();
  const auto cells = raw.cells();
  ASSERT_GT(cells.size(), 10u);
  model::EventVector sum;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      EXPECT_TRUE(cells[i - 1].node < cells[i].node ||
                  (cells[i - 1].node == cells[i].node &&
                   cells[i - 1].leaf < cells[i].leaf))
          << i;
    }
    sum += cells[i].counts;
  }
  // Period 1: every sample is worth 1, so every sum is exact in any order.
  for (std::size_t e = 0; e < model::kNumEvents; ++e)
    EXPECT_EQ(raw.totals().v[e], sum.v[e]) << e;
  EXPECT_EQ(raw.totals()[Event::kCycles],
            static_cast<double>(raw.sample_count(Event::kCycles)));

  // Re-adding a sample to an existing (non-last) cell accumulates there.
  RawProfile p;
  const auto a = p.child(kRawRoot, 0, 100);
  p.add_sample(a, 20, Event::kCycles, 2);
  p.add_sample(a, 10, Event::kCycles, 1);
  p.add_sample(a, 20, Event::kCycles, 3);
  p.sort_cells();
  const auto pc = p.cells();
  ASSERT_EQ(pc.size(), 2u);
  EXPECT_EQ(pc[0].leaf, 10u);
  EXPECT_EQ(pc[1].counts[Event::kCycles], 5.0);
  EXPECT_EQ(p.sample_count(Event::kCycles), 3u);
}

/// The cell store without in-order appends: every cell goes through a
/// (node, leaf) index in insertion order and is sorted on read. The oracle
/// RawProfile's cells are checked against.
struct IndexedCells {
  std::vector<RawProfile::Cell> cells;
  std::map<std::pair<NodeIndex, model::Addr>, std::size_t> index;
  std::uint64_t samples[model::kNumEvents] = {};

  void add(NodeIndex node, model::Addr leaf, Event e, double value) {
    ++samples[static_cast<std::size_t>(e)];
    if (!cells.empty() && cells.back().node == node &&
        cells.back().leaf == leaf) {
      cells.back().counts[e] += value;
      return;
    }
    const auto [it, fresh] = index.try_emplace({node, leaf}, cells.size());
    if (fresh) cells.push_back(RawProfile::Cell{node, leaf, {}});
    cells[it->second].counts[e] += value;
  }
  std::vector<RawProfile::Cell> sorted() const {
    std::vector<RawProfile::Cell> out = cells;
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return std::tie(a.node, a.leaf) < std::tie(b.node, b.leaf);
    });
    return out;
  }
};

/// A measurement file's content, in file order.
struct FileCell {
  std::uint64_t node;
  model::Addr leaf;
  std::vector<std::pair<Event, double>> values;  // ascending event
};

void put_varint(std::string& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out += static_cast<char>((v & 0x7f) | 0x80);
  out += static_cast<char>(v);
}

std::string encode(const std::vector<TrieNode>& nodes,
                   const std::vector<FileCell>& cells) {
  std::string out = "PVMS1\n";
  put_varint(out, 3);  // rank
  put_varint(out, 0);  // thread
  put_varint(out, nodes.size() - 1);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    put_varint(out, nodes[i].parent);
    put_varint(out, nodes[i].call_site);
    put_varint(out, nodes[i].callee_entry);
  }
  put_varint(out, cells.size());
  for (const FileCell& c : cells) {
    put_varint(out, c.node);
    put_varint(out, c.leaf);
    std::uint64_t mask = 0;
    for (const auto& [e, v] : c.values) mask |= 1ull << static_cast<int>(e);
    put_varint(out, mask);
    for (const auto& [e, v] : c.values) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b) out += static_cast<char>(bits >> (8 * b));
    }
  }
  return out;
}

/// The decoder's sample sequence replayed into the oracle: file nodes map
/// to trie nodes with duplicate edges merged, cells add in file order.
IndexedCells replay(const std::vector<TrieNode>& nodes,
                    const std::vector<FileCell>& cells) {
  std::map<std::tuple<NodeIndex, model::Addr, model::Addr>, NodeIndex> edges;
  std::vector<NodeIndex> map(nodes.size(), kRawRoot);
  NodeIndex next = 1;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const auto [it, fresh] = edges.try_emplace(
        {map[nodes[i].parent], nodes[i].call_site, nodes[i].callee_entry},
        next);
    if (fresh) ++next;
    map[i] = it->second;
  }
  IndexedCells oracle;
  for (const FileCell& c : cells)
    for (const auto& [e, v] : c.values) oracle.add(map[c.node], c.leaf, e, v);
  return oracle;
}

void expect_same_cells(const std::vector<RawProfile::Cell>& got,
                       const std::vector<RawProfile::Cell>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].node, want[i].node) << what << " cell " << i;
    ASSERT_EQ(got[i].leaf, want[i].leaf) << what << " cell " << i;
    ASSERT_EQ(std::memcmp(got[i].counts.v.data(), want[i].counts.v.data(),
                          sizeof(double) * model::kNumEvents),
              0)
        << what << " cell " << i;
  }
}

/// Decoded profiles give bit-identical cells whether their samples took
/// the in-order append path (a well-formed file), switched to the index
/// part way (shuffled cells, repeated cells) or merged duplicate trie edges.
TEST(RawProfile, InOrderAppendsMatchIndexedInserts) {
  for (const std::uint64_t seed : {3u, 8u, 21u}) {
    workloads::Workload w = workloads::make_random_program({.seed = seed});
    const RawProfile sim = ExecutionEngine(*w.program, *w.lowering, w.run).run();
    std::mt19937_64 rng(seed);
    // Values whose sums round differently in another order.
    std::uniform_real_distribution<double> value(0.1, 1e6);

    std::vector<TrieNode> nodes = sim.nodes();
    std::vector<FileCell> in_order;
    for (const RawProfile::Cell& c : sim.cells()) {
      FileCell fc{c.node, c.leaf, {}};
      for (std::size_t e = 0; e < model::kNumEvents; ++e)
        if (c.counts.v[e] != 0.0 || fc.values.empty())
          fc.values.emplace_back(static_cast<Event>(e), value(rng));
      in_order.push_back(std::move(fc));
    }
    ASSERT_GT(in_order.size(), 20u);

    std::vector<FileCell> shuffled = in_order;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    // Repeats of earlier cells with new values, some right after their
    // original and some far from it.
    std::vector<FileCell> repeated = in_order;
    for (int k = 0; k < 40; ++k) {
      const std::size_t from = rng() % repeated.size();
      FileCell dup = repeated[from];
      for (auto& [e, v] : dup.values) v = value(rng);
      const std::size_t at = k % 2 == 0 ? from + 1 : rng() % repeated.size();
      repeated.insert(repeated.begin() + static_cast<std::ptrdiff_t>(at),
                      std::move(dup));
    }

    // Duplicate trie edges: a second file node for existing frames, with
    // cells of its own, so file order is not trie order.
    std::vector<TrieNode> dup_nodes = nodes;
    std::vector<FileCell> dup_cells = in_order;
    for (int k = 0; k < 12; ++k) {
      const auto twin = static_cast<NodeIndex>(1 + rng() % (nodes.size() - 1));
      dup_nodes.push_back(nodes[twin]);
      const std::size_t from = rng() % in_order.size();
      FileCell fc{dup_nodes.size() - 1, in_order[from].leaf,
                  {{Event::kCycles, value(rng)}}};
      dup_cells.push_back(std::move(fc));
    }

    const std::pair<const char*, std::pair<std::vector<TrieNode>*,
                                           std::vector<FileCell>*>>
        cases[] = {{"in order", {&nodes, &in_order}},
                   {"shuffled", {&nodes, &shuffled}},
                   {"repeated cells", {&nodes, &repeated}},
                   {"duplicate edges", {&dup_nodes, &dup_cells}}};
    for (const auto& [name, content] : cases) {
      const std::string what =
          std::string(name) + ", seed " + std::to_string(seed);
      const RawProfile got =
          db::measurement_from_bytes(encode(*content.first, *content.second));
      const IndexedCells want = replay(*content.first, *content.second);
      ASSERT_NO_THROW(got.cells()) << what;
      expect_same_cells(got.cells(), want.sorted(), what);
      for (std::size_t e = 0; e < model::kNumEvents; ++e)
        EXPECT_EQ(got.sample_count(static_cast<Event>(e)), want.samples[e])
            << what;
    }
  }
}

}  // namespace
}  // namespace pathview::sim

namespace pathview::sim {
namespace {

TEST(ParallelRunner, ThreadsPerRankProduceDistinctProfiles) {
  workloads::Workload w = workloads::make_random_program({.seed = 21});
  ParallelConfig pc;
  pc.nranks = 2;
  pc.threads_per_rank = 3;
  pc.base = w.run;
  const auto profiles = run_parallel(*w.program, *w.lowering, pc);
  ASSERT_EQ(profiles.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(profiles[i].rank, i / 3);
    EXPECT_EQ(profiles[i].thread, i % 3);
  }
}

}  // namespace
}  // namespace pathview::sim

namespace pathview::sim {
namespace {

TEST(Engine, TripJitterVariesTripsWithinBounds) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto loop = b.in(p).loop(2, 100, /*trip_jitter=*/0.2);
  b.in(p, loop).compute(3, model::make_cost(1));
  b.set_entry(p);
  const model::Program prog = b.finish();
  model::IdentityAddressSpace aspace;

  std::set<double> totals;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunConfig cfg;
    cfg.seed = seed;
    cfg.sampler.sample(Event::kCycles, 1.0);
    ExecutionEngine eng(prog, aspace, cfg);
    const double t = eng.run().totals()[Event::kCycles];
    EXPECT_GE(t, 80.0);   // 100 * (1 - 0.2)
    EXPECT_LE(t, 120.0);  // 100 * (1 + 0.2)
    totals.insert(t);
  }
  EXPECT_GT(totals.size(), 1u);  // jitter actually varies the trip count
}

TEST(Engine, BranchProbabilityIsRespected) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto loop = b.in(p).loop(2, 10000);
  const auto br = b.in(p, loop).branch(3, 0.25);
  b.in(p, br).compute(4, model::make_cost(1));
  b.set_entry(p);
  const model::Program prog = b.finish();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  ExecutionEngine eng(prog, aspace, cfg);
  const double taken = eng.run().totals()[Event::kCycles];
  EXPECT_NEAR(taken / 10000.0, 0.25, 0.02);
}

TEST(Engine, VisitBudgetStopsConsistently) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto loop = b.in(p).loop(2, 1000000);
  b.in(p, loop).compute(3, model::make_cost(1));
  b.set_entry(p);
  const model::Program prog = b.finish();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.max_visits = 5000;
  ExecutionEngine eng(prog, aspace, cfg);
  const RawProfile raw = eng.run();
  // Bounded, and sampled totals still equal true totals.
  EXPECT_LE(eng.true_totals()[Event::kCycles], 5001.0);
  EXPECT_DOUBLE_EQ(raw.totals()[Event::kCycles],
                   eng.true_totals()[Event::kCycles]);
}

}  // namespace
}  // namespace pathview::sim
