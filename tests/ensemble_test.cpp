// Golden tests for pathview::ensemble: supergraph alignment, presence
// bitmaps, differential column exactness, member-order determinism,
// degraded propagation, query integration and input expansion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pathview/ensemble/ensemble.hpp"
#include "pathview/ensemble/inputs.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/model/builder.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/query/query.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/structure/lower.hpp"
#include "pathview/structure/recovery.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/prng.hpp"
#include "pathview/workloads/random_program.hpp"
#include "pathview/workloads/registry.hpp"
#include "ensemble_columns_oracle.hpp"
#include "ensemble_union_oracle.hpp"

namespace pathview::ensemble {
namespace {

using model::Event;

/// main -> work(work_cycles) [-> extra(500) when with_extra]; the same tiny
/// program shape diff_test uses, so the sampled cycle counts are exact.
std::shared_ptr<db::Experiment> tiny_run(double work_cycles, bool with_extra,
                                         const std::string& name) {
  model::ProgramBuilder b;
  const auto file = b.file("app.c", b.module("app.x"));
  const auto mainp = b.proc("main", file, 1);
  const auto work = b.proc("work", file, 10);
  b.in(mainp).call(2, work);
  b.in(work).compute(11, model::make_cost(work_cycles));
  if (with_extra) {
    const auto extra = b.proc("extra", file, 20);
    b.in(mainp).call(3, extra);
    b.in(extra).compute(21, model::make_cost(500));
  }
  b.set_entry(mainp);
  const model::Program prog = b.finish();
  const structure::Lowering lw(prog);
  const structure::StructureTree tree =
      structure::recover_structure(lw.image());
  sim::RunConfig rc;
  rc.sampler.sample(Event::kCycles, 1.0);
  sim::ExecutionEngine eng(prog, lw, rc);
  const prof::CanonicalCct cct = prof::correlate(eng.run(), tree);
  return std::make_shared<db::Experiment>(
      db::Experiment::capture(tree, cct, name, 1));
}

/// Supergraph node with label `label`, or kCctNull-equivalent failure.
prof::CctNodeId find_node(const Ensemble& e, const std::string& label) {
  for (prof::CctNodeId n = 1; n < e.cct().size(); ++n)
    if (e.cct().label(n) == label) return n;
  ADD_FAILURE() << "no supergraph node labelled '" << label << "'";
  return 0;
}

double col(const Ensemble& e, const std::string& name, prof::CctNodeId n) {
  const auto c = e.attribution().table.find(name);
  if (!c) {
    ADD_FAILURE() << "no column '" << name << "'";
    return -1;
  }
  return e.attribution().table.get(*c, n);
}

TEST(Ensemble, TwoRunStatsAreExact) {
  const auto a = tiny_run(1000, false, "a");
  const auto b = tiny_run(1300, false, "b");
  const Ensemble e = Ensemble::align({a, b});

  // Identical shapes: the supergraph is exactly one member's CCT.
  EXPECT_EQ(e.cct().size(), a->cct().size());
  EXPECT_EQ(e.num_members(), 2u);
  EXPECT_FALSE(e.degraded());

  const prof::CctNodeId w = find_node(e, "work");
  // Plain column = across-member sum, so single-run queries keep meaning.
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I)", w), 2300.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) run0", w), 1000.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) run1", w), 1300.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) mean", w), 1150.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) min", w), 1000.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) max", w), 1300.0);
  // Population stddev: mean 1150, deviations +/-150.
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) stddev", w), 150.0);
  // delta = mean(non-baseline) - baseline; ratio likewise.
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) delta", w), 300.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) ratio", w), 1.3);
  // 300 > 5% of 1000: regressed.
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) regressed", w), 1.0);
  EXPECT_DOUBLE_EQ(col(e, std::string(kPresenceColumn), w), 2.0);
  EXPECT_TRUE(e.present(w, 0));
  EXPECT_TRUE(e.present(w, 1));
  EXPECT_EQ(e.presence_count(w), 2u);
}

TEST(Ensemble, ImprovementIsNotARegression) {
  const auto a = tiny_run(1300, false, "a");
  const auto b = tiny_run(1000, false, "b");
  const Ensemble e = Ensemble::align({a, b});
  const prof::CctNodeId w = find_node(e, "work");
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) delta", w), -300.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) regressed", w), 0.0);
}

TEST(Ensemble, MissingNodePresenceAndZeroFill) {
  const auto a = tiny_run(1000, false, "a");
  const auto b = tiny_run(1000, true, "b");  // only b has `extra`
  const Ensemble e = Ensemble::align({a, b});

  EXPECT_GT(e.cct().size(), a->cct().size());
  const prof::CctNodeId x = find_node(e, "extra");
  EXPECT_FALSE(e.present(x, 0));
  EXPECT_TRUE(e.present(x, 1));
  EXPECT_EQ(e.presence_count(x), 1u);
  EXPECT_DOUBLE_EQ(col(e, std::string(kPresenceColumn), x), 1.0);
  // The run that lacks the path contributes exact zeros, not garbage.
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) run0", x), 0.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) run1", x), 500.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) delta", x), 500.0);
  // A path born after the baseline is a regression by definition.
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) regressed", x), 1.0);
  // Shared paths are present everywhere.
  const prof::CctNodeId w = find_node(e, "work");
  EXPECT_EQ(e.presence_count(w), 2u);
}

TEST(Ensemble, MemberShuffleYieldsIdenticalSupergraph) {
  const auto a = tiny_run(1000, false, "a");
  const auto b = tiny_run(1300, true, "b");
  const auto c = tiny_run(900, false, "c");

  EnsembleOptions o1;
  o1.baseline = 0;  // run a
  const Ensemble e1 = Ensemble::align({a, b, c}, o1);
  EnsembleOptions o2;
  o2.baseline = 1;  // still run a after the shuffle
  const Ensemble e2 = Ensemble::align({c, a, b}, o2);

  // The supergraph is canonical: same size, same labels in the same node
  // order, no matter how the member list was ordered.
  ASSERT_EQ(e1.cct().size(), e2.cct().size());
  for (prof::CctNodeId n = 0; n < e1.cct().size(); ++n) {
    EXPECT_EQ(e1.cct().label(n), e2.cct().label(n)) << "node " << n;
    EXPECT_EQ(e1.presence_count(n), e2.presence_count(n)) << "node " << n;
  }
  // Order-independent columns match exactly; per-run columns permute.
  const char* stable[] = {"PAPI_TOT_CYC (I)",        "PAPI_TOT_CYC (I) mean",
                          "PAPI_TOT_CYC (I) min",    "PAPI_TOT_CYC (I) max",
                          "PAPI_TOT_CYC (I) stddev", "PAPI_TOT_CYC (I) delta",
                          "PAPI_TOT_CYC (I) ratio",
                          "PAPI_TOT_CYC (I) regressed"};
  for (prof::CctNodeId n = 0; n < e1.cct().size(); ++n) {
    for (const char* name : stable)
      EXPECT_DOUBLE_EQ(col(e1, name, n), col(e2, name, n))
          << name << " node " << n;
    EXPECT_DOUBLE_EQ(col(e1, "PAPI_TOT_CYC (I) run0", n),
                     col(e2, "PAPI_TOT_CYC (I) run1", n));  // a
    EXPECT_DOUBLE_EQ(col(e1, "PAPI_TOT_CYC (I) run1", n),
                     col(e2, "PAPI_TOT_CYC (I) run2", n));  // b
    EXPECT_DOUBLE_EQ(col(e1, "PAPI_TOT_CYC (I) run2", n),
                     col(e2, "PAPI_TOT_CYC (I) run0", n));  // c
  }
}

TEST(Ensemble, ThreeRunDeltaAveragesTheOthers) {
  const auto a = tiny_run(1000, false, "a");
  const auto b = tiny_run(1300, false, "b");
  const auto c = tiny_run(900, false, "c");
  const Ensemble e = Ensemble::align({a, b, c});
  const prof::CctNodeId w = find_node(e, "work");
  // others = (1300 + 900) / 2 = 1100; delta = 100; ratio = 1.1.
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) delta", w), 100.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) ratio", w), 1.1);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) mean", w), 3200.0 / 3.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) min", w), 900.0);
  EXPECT_DOUBLE_EQ(col(e, "PAPI_TOT_CYC (I) max", w), 1300.0);
}

TEST(Ensemble, DegradedMemberTaintsTheEnsemble) {
  const auto a = tiny_run(1000, false, "a");
  const auto b = tiny_run(1000, false, "b");
  b->set_degraded(true);
  b->set_dropped_ranks({3});

  const Ensemble clean = Ensemble::align({a, tiny_run(1000, false, "b")});
  EXPECT_FALSE(clean.degraded());
  EXPECT_FALSE(clean.attribution().table.degraded());

  const Ensemble e = Ensemble::align({a, b});
  EXPECT_TRUE(e.degraded());
  // The flag flows into the metric table so every downstream consumer
  // (views, queries, serve) sees it without asking the ensemble.
  EXPECT_TRUE(e.attribution().table.degraded());
  EXPECT_FALSE(e.members()[0].degraded);
  EXPECT_TRUE(e.members()[1].degraded);
  ASSERT_EQ(e.members()[1].dropped_ranks.size(), 1u);
  EXPECT_EQ(e.members()[1].dropped_ranks[0], 3u);
}

TEST(Ensemble, MemberInfoAndMapsRoundTrip) {
  const auto a = tiny_run(1000, false, "alpha");
  const auto b = tiny_run(1300, true, "beta");
  const Ensemble e =
      Ensemble::align({a, b}, {"runs/a.pvdb", "runs/b.pvdb"}, {});
  ASSERT_EQ(e.members().size(), 2u);
  EXPECT_EQ(e.members()[0].path, "runs/a.pvdb");
  EXPECT_EQ(e.members()[0].name, "alpha");
  EXPECT_EQ(e.members()[1].name, "beta");
  EXPECT_EQ(e.members()[0].cct_nodes, a->cct().size());
  // member_map carries every member node to a live supergraph node with the
  // same label.
  for (std::size_t k = 0; k < 2; ++k) {
    const db::Experiment& m = k == 0 ? *a : *b;
    const auto& map = e.member_map(k);
    ASSERT_EQ(map.size(), m.cct().size());
    for (prof::CctNodeId n = 0; n < m.cct().size(); ++n) {
      ASSERT_LT(map[n], e.cct().size());
      EXPECT_EQ(e.cct().label(map[n]), m.cct().label(n));
      EXPECT_TRUE(e.present(map[n], k));
    }
  }
}

TEST(Ensemble, AlignValidatesItsInputs) {
  const auto a = tiny_run(1000, false, "a");
  EXPECT_THROW(Ensemble::align({}), InvalidArgument);
  EXPECT_THROW(Ensemble::align({a, nullptr}), InvalidArgument);
  EnsembleOptions bad_base;
  bad_base.baseline = 2;
  EXPECT_THROW(Ensemble::align({a, a}, bad_base), InvalidArgument);
  EnsembleOptions bad_thr;
  bad_thr.regress_threshold = -0.1;
  EXPECT_THROW(Ensemble::align({a, a}, bad_thr), InvalidArgument);
  EXPECT_THROW(Ensemble::align({a, a}, {"one-path"}, {}), InvalidArgument);
}

/// Six seeded members: runs 0-3 of one random program and runs 4-5 of a
/// second, so the supergraph holds nodes that only some members contain.
std::vector<std::shared_ptr<const db::Experiment>> seeded_members() {
  std::vector<std::shared_ptr<const db::Experiment>> out;
  for (std::uint64_t k = 0; k < 6; ++k) {
    const workloads::Workload w = workloads::make_random_program(
        {.seed = k < 4 ? 61u : 62u, .num_procs = 8, .max_body_stmts = 3});
    sim::RunConfig rc = w.run;
    rc.seed = 1000 + k;
    sim::ExecutionEngine eng(*w.program, *w.lowering, rc);
    const prof::CanonicalCct cct = prof::correlate(eng.run(), *w.tree);
    out.push_back(std::make_shared<db::Experiment>(db::Experiment::capture(
        *w.tree, cct, "m" + std::to_string(k), 1)));
  }
  return out;
}

/// FNV-1a over every supergraph node (kind, parent, label, per-member
/// presence) and every metric-table cell's bits, columns in table order.
/// `slot_of[k]` is original member k's position in `e`'s member list: run
/// columns and presence bits are read through it, so a member-shuffled
/// alignment digests like the unshuffled one. `with_stddev` false skips the
/// stddev columns, the one statistic whose rounding follows member order.
std::uint64_t ensemble_digest(const Ensemble& e,
                              const std::vector<std::size_t>& slot_of,
                              bool with_stddev = true) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_str = [&](const std::string& s) {
    mix(s.data(), s.size() + 1);
  };
  const prof::CanonicalCct& cct = e.cct();
  for (prof::CctNodeId n = 0; n < cct.size(); ++n) {
    const prof::CctNode& node = cct.node(n);
    mix(&node.kind, sizeof node.kind);
    mix(&node.parent, sizeof node.parent);
    mix_str(cct.label(n));
    for (const std::size_t slot : slot_of) {
      const bool bit = e.present(n, slot);
      mix(&bit, sizeof bit);
    }
  }
  const metrics::MetricTable& t = e.attribution().table;
  for (metrics::ColumnId c = 0; c < t.num_columns(); ++c) {
    const std::string& name = t.desc(c).name;
    if (!with_stddev && name.ends_with(" stddev")) continue;
    mix_str(name);
    metrics::ColumnId src = c;
    if (const auto pos = name.rfind(" run"); pos != std::string::npos &&
        name.find_first_not_of("0123456789", pos + 4) == std::string::npos) {
      const std::size_t k = std::stoul(name.substr(pos + 4));
      src = *t.find(run_column(name.substr(0, pos), slot_of[k]));
    }
    for (const double v : t.column(src)) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      mix(&bits, sizeof bits);
    }
  }
  return h;
}

TEST(Ensemble, SeededSixMemberDigestIsPinned) {
  // Both values were recorded from the serial column build; the parallel
  // build must reproduce every bit, in member order and under a shuffle.
  constexpr std::uint64_t kPinned = 6796490366696053434ULL;
  constexpr std::uint64_t kPinnedShuffled = 14167355326812926060ULL;
  const auto members = seeded_members();
  const Ensemble e = Ensemble::align(members);
  EXPECT_GT(e.cct().size(), members[0]->cct().size());
  EXPECT_EQ(ensemble_digest(e, {0, 1, 2, 3, 4, 5}), kPinned);

  const std::vector<std::size_t> perm = {3, 5, 0, 4, 1, 2};
  std::vector<std::shared_ptr<const db::Experiment>> shuffled;
  std::vector<std::size_t> slot_of(perm.size());
  for (std::size_t p = 0; p < perm.size(); ++p) {
    shuffled.push_back(members[perm[p]]);
    slot_of[perm[p]] = p;
  }
  EnsembleOptions opts;
  opts.baseline = slot_of[0];
  const Ensemble s = Ensemble::align(shuffled, opts);
  EXPECT_EQ(ensemble_digest(s, slot_of), kPinnedShuffled);
  // Only stddev's summation order follows the member order; every other
  // node and cell is shuffle-invariant bit for bit.
  EXPECT_EQ(ensemble_digest(s, slot_of, false),
            ensemble_digest(e, {0, 1, 2, 3, 4, 5}, false));
}

/// A seeded member over a synthetic structure tree whose scopes draw their
/// union keys from a tiny alphabet, so one member often holds two sibling
/// scopes with the same key (distinct entries); CCT nodes over such twins
/// are added on purpose and merge into one supergraph node. CCT nodes go
/// under random parents, so child lists, id order and preorder all differ.
/// `shape_seed` fixes the tree and CCT, `sample_seed` the samples, whose
/// magnitudes span 2^-20..2^40 so any change in summation order shows in
/// the bits.
std::shared_ptr<const db::Experiment> colliding_member(std::uint64_t shape_seed,
                                                      std::uint64_t sample_seed) {
  Prng rng(shape_seed);
  Prng values(sample_seed);
  auto tree = std::make_unique<structure::StructureTree>();
  const std::size_t nscopes = 10 + rng.next_below(30);
  for (std::size_t i = 0; i < nscopes; ++i) {
    structure::SNode n;
    n.kind = static_cast<structure::SKind>(1 + rng.next_below(6));
    n.parent = static_cast<structure::SNodeId>(
        rng.next_below(std::min<std::size_t>(tree->size(), 6)));
    n.name = tree->names().intern(std::string(1, 'a' + rng.next_below(2)));
    n.file = tree->names().intern(rng.next_bool(0.5) ? "x.c" : "y.c");
    n.line = static_cast<int>(rng.next_below(2));
    n.call_line = static_cast<int>(rng.next_below(2));
    n.entry = sample_seed * 1000 + i;
    n.has_source = rng.next_bool(0.8);
    tree->add_node(std::move(n));
  }
  // twins[s]: the other scopes sharing s's parent and union key.
  std::vector<std::vector<structure::SNodeId>> twins(tree->size());
  for (structure::SNodeId a = 1; a < tree->size(); ++a)
    for (structure::SNodeId b = 1; b < tree->size(); ++b) {
      const structure::SNode& x = tree->node(a);
      const structure::SNode& y = tree->node(b);
      if (a != b && x.parent == y.parent && x.kind == y.kind &&
          x.name == y.name && x.file == y.file && x.line == y.line &&
          x.call_line == y.call_line)
        twins[a].push_back(b);
    }
  prof::CanonicalCct cct(tree.get());
  const auto sample = [&values] {
    model::EventVector ev;
    for (double& v : ev.v)
      if (values.next_bool(0.5))
        v = std::ldexp(values.next_double(),
                       static_cast<int>(values.next_below(60)) - 20);
    return ev;
  };
  cct.add_samples(prof::kCctRoot, sample());
  const std::size_t nnodes = 30 + rng.next_below(150);
  for (std::size_t i = 0; i < nnodes; ++i) {
    const auto parent = static_cast<prof::CctNodeId>(rng.next_below(cct.size()));
    const auto kind = static_cast<prof::CctKind>(1 + rng.next_below(4));
    const auto scope =
        static_cast<structure::SNodeId>(1 + rng.next_below(tree->size() - 1));
    const structure::SNodeId call_site =
        rng.next_bool(0.4) ? structure::kSNull
                           : static_cast<structure::SNodeId>(
                                 rng.next_below(tree->size()));
    prof::CctNodeId id = cct.find_or_add_child(parent, kind, scope, call_site);
    // Now and then give an existing node a sibling over a twin scope.
    const prof::CctNode n = cct.node(static_cast<prof::CctNodeId>(
        1 + rng.next_below(cct.size() - 1)));
    if (!twins[n.scope].empty() && rng.next_bool(0.5))
      id = cct.find_or_add_child(
          n.parent, n.kind,
          twins[n.scope][rng.next_below(twins[n.scope].size())], n.call_site);
    cct.add_samples(id, sample());
  }
  return std::make_shared<db::Experiment>(
      std::move(tree), std::move(cct), "c" + std::to_string(sample_seed), 1);
}

TEST(EnsembleUnionOracle, OnePassUnionMatchesHashUnionAndRebuild) {
  std::size_t merged = 0;  // member nodes sharing a supergraph node
  for (std::uint64_t round = 0; round < 12; ++round) {
    std::vector<std::shared_ptr<const db::Experiment>> members;
    const std::size_t n = 1 + round % 6;
    for (std::size_t k = 0; k < n; ++k)
      // Odd rounds mix two shapes, so some paths are in only some members.
      members.push_back(colliding_member(
          100 * round + (round % 2 == 1 ? k % 2 : 0), 1000 * round + k));
    if (round % 4 == 3)
      for (const auto& m : seeded_members()) members.push_back(m);
    const Ensemble e = Ensemble::align(members);
    const oracle::UnionReference ref = oracle::reference_union(members);

    const structure::StructureTree& t = e.tree();
    ASSERT_EQ(t.size(), ref.tree->size()) << "round " << round;
    for (structure::SNodeId s = 0; s < t.size(); ++s) {
      const structure::SNode& a = t.node(s);
      const structure::SNode& b = ref.tree->node(s);
      EXPECT_TRUE(a.kind == b.kind && a.parent == b.parent &&
                  t.names().str(a.name) == ref.tree->names().str(b.name) &&
                  t.names().str(a.file) == ref.tree->names().str(b.file) &&
                  a.line == b.line && a.call_line == b.call_line &&
                  a.entry == b.entry && a.has_source == b.has_source &&
                  a.children == b.children)
          << "round " << round << " scope " << s;
    }

    const prof::CanonicalCct& c = e.cct();
    ASSERT_EQ(c.size(), ref.cct->size()) << "round " << round;
    for (prof::CctNodeId u = 0; u < c.size(); ++u) {
      const prof::CctNode& a = c.node(u);
      const prof::CctNode& b = ref.cct->node(u);
      EXPECT_TRUE(a.kind == b.kind && a.parent == b.parent &&
                  a.scope == b.scope && a.call_site == b.call_site &&
                  a.children == b.children)
          << "round " << round << " node " << u;
      EXPECT_EQ(std::memcmp(&c.samples(u), &ref.cct->samples(u),
                            sizeof(model::EventVector)),
                0)
          << "round " << round << " samples of node " << u;
    }

    for (std::size_t k = 0; k < members.size(); ++k) {
      ASSERT_EQ(e.member_map(k), ref.maps[k]) << "round " << round;
      std::vector<bool> hit(c.size(), false);
      for (const prof::CctNodeId u : ref.maps[k]) {
        merged += hit[u] ? 1 : 0;
        hit[u] = true;
      }
      for (prof::CctNodeId u = 0; u < c.size(); ++u)
        EXPECT_EQ(e.present(u, k), hit[u])
            << "round " << round << " member " << k << " node " << u;
    }
  }
  EXPECT_GT(merged, 0u) << "no member held two nodes with one union key";
}

/// A two-rank run of a bundled workload. combustion, mesh and subsurface
/// sample with a jittered period, so their sample values are not integers
/// and any change in summation order shows in the bits.
std::shared_ptr<const db::Experiment> workload_member(const std::string& name,
                                                      std::uint64_t seed) {
  const workloads::Workload w = workloads::make_workload(name, 2, seed);
  const prof::CanonicalCct cct =
      prof::Pipeline().run(workloads::profile_workload(w, 2, 1), *w.tree);
  return std::make_shared<db::Experiment>(db::Experiment::capture(
      *w.tree, cct, name + std::to_string(seed), 2));
}

bool same_bits(std::span<const double> a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), b.size() * sizeof(double)) == 0;
}

TEST(EnsembleColumnsOracle, LazyBlocksMatchEagerBuild) {
  // Every cell of every column, generated on first read in a random column
  // order by one reader or by four concurrent readers, must carry the bits
  // of the eager attribute-then-scatter build. The third set's members hold
  // distinct nodes that merge into one supergraph node.
  std::vector<std::vector<std::shared_ptr<const db::Experiment>>> sets = {
      {workload_member("combustion", 3), workload_member("mesh", 4),
       workload_member("combustion", 5), workload_member("mesh", 6)},
      seeded_members(),
      {}};
  for (std::uint64_t k = 0; k < 4; ++k)
    sets.back().push_back(colliding_member(700 + k % 2, 7000 + k));
  std::uint64_t seed = 1;
  for (const auto& members : sets) {
    for (const unsigned readers : {1u, 4u}) {
      EnsembleOptions opts;
      opts.baseline = 1;
      const Ensemble e = Ensemble::align(members, opts);
      const std::vector<std::vector<double>> want =
          oracle::eager_columns(e, members);
      const metrics::MetricTable& t = e.attribution().table;
      ASSERT_EQ(t.num_columns(), want.size());
      std::atomic<std::size_t> mismatches{0};
      std::vector<std::thread> threads;
      for (unsigned r = 0; r < readers; ++r) {
        threads.emplace_back([&, order_seed = seed++] {
          std::vector<metrics::ColumnId> order(t.num_columns());
          for (metrics::ColumnId c = 0; c < order.size(); ++c) order[c] = c;
          Prng rng(order_seed);
          for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.next_below(i)]);
          for (const metrics::ColumnId c : order)
            if (!same_bits(t.column(c), want[c]))
              mismatches.fetch_add(1, std::memory_order_relaxed);
        });
      }
      for (std::thread& th : threads) th.join();
      EXPECT_EQ(mismatches.load(), 0u) << readers << " reader(s)";
    }
  }
}

TEST(EnsembleColumns, EightFirstReadersGenerateEachBlockOnce) {
  const auto members = seeded_members();
  const Ensemble e = Ensemble::align(members);
  const metrics::MetricTable& t = e.attribution().table;
  const std::size_t blocks = 2 * e.options().events.size();
  // Plain columns and presence are filled; every ensemble column waits.
  std::size_t waiting = 0;
  for (metrics::ColumnId c = 0; c < t.num_columns(); ++c)
    waiting += t.buffer(c).generated() ? 0 : 1;
  EXPECT_EQ(waiting, blocks * (members.size() + 7));

  obs::reset();
  obs::set_enabled(true);
  std::vector<std::vector<double>> seen(8);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < seen.size(); ++r)
    threads.emplace_back([&, r] {
      // Each thread starts at a different column, so first reads collide.
      const std::size_t n = t.num_columns();
      for (std::size_t i = 0; i < n; ++i) {
        const metrics::ColumnId c =
            static_cast<metrics::ColumnId>((i + r * n / 8) % n);
        for (const double v : t.column(c)) seen[r].push_back(v);
      }
    });
  for (std::thread& th : threads) th.join();
  obs::set_enabled(false);
  EXPECT_EQ(obs::counter("ensemble.blocks_generated").value(), blocks);
  for (std::size_t r = 1; r < seen.size(); ++r) {
    // Same cells, rotated by the thread's starting column.
    std::vector<double> a = seen[0], b = seen[r];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_TRUE(same_bits(b, a)) << "thread " << r;
  }
  for (metrics::ColumnId c = 0; c < t.num_columns(); ++c)
    EXPECT_TRUE(t.buffer(c).generated());
}

TEST(EnsembleColumns, CopiedTableSharesImmutableBuffers) {
  const Ensemble e = Ensemble::align(seeded_members());
  const metrics::MetricTable& base = e.attribution().table;
  metrics::MetricTable copy = base;
  const metrics::ColumnId plain = *base.find("PAPI_TOT_CYC (I)");
  const metrics::ColumnId run = *base.find("PAPI_TOT_CYC (I) run0");
  // A generated column read through the copy is the base's buffer too.
  EXPECT_EQ(copy.column(run).data(), base.column(run).data());
  EXPECT_EQ(copy.column(plain).data(), base.column(plain).data());
  for (const metrics::ColumnId c : {plain, run}) {
    EXPECT_FALSE(copy.is_writable(c));
    EXPECT_THROW(copy.set(c, 0, 1.0), InvalidArgument);
    EXPECT_THROW(copy.add(c, 0, 1.0), InvalidArgument);
    EXPECT_THROW(copy.column_mut(c), InvalidArgument);
  }
  EXPECT_THROW(copy.ensure_rows(copy.num_rows() + 1), InvalidArgument);
  // A derived column is the copy's own, and the base does not see it.
  const std::size_t before = base.num_columns();
  const metrics::ColumnId d = metrics::add_derived_metric(
      copy, "twice", "$" + std::to_string(plain) + " * 2");
  EXPECT_TRUE(copy.is_writable(d));
  EXPECT_EQ(base.num_columns(), before);
  EXPECT_EQ(copy.get(d, 0), 2 * base.get(plain, 0));
}

TEST(Ensemble, QueryRunsOverEnsembleColumns) {
  const auto a = tiny_run(1000, false, "a");
  const auto b = tiny_run(1300, false, "b");
  const Ensemble e = Ensemble::align({a, b});

  const query::Plan plan = query::compile(
      query::parse("match '**' where cycles.incl.regressed > 0 select "
                   "cycles.incl.run0, cycles.incl.delta, cycles.incl.ratio "
                   "order by cycles.incl.delta desc"),
      e.cct(), e.attribution().table);
  const query::QueryResult r = plan.execute();

  // Samples land on work's statement; both enclosing frames (main, work)
  // inherit the same inclusive 1000 -> 1300 regression.
  ASSERT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.columns[0], "cycles.incl.run0");  // display name, per pvquery
  ASSERT_EQ(r.rows.size(), 2u);
  for (const query::ResultRow& row : r.rows) {
    EXPECT_DOUBLE_EQ(row.values[0], 1000.0);
    EXPECT_DOUBLE_EQ(row.values[1], 300.0);
    EXPECT_DOUBLE_EQ(row.values[2], 1.3);
  }
}

TEST(EnsembleQueryGrammar, MetricSuffixResolution) {
  EXPECT_EQ(query::resolve_metric_name("cycles.incl.delta"),
            "cycles (I) delta");
  EXPECT_EQ(query::resolve_metric_name("cycles.excl.run12"),
            "cycles (E) run12");
  EXPECT_EQ(query::resolve_metric_name("flops.incl.stddev"),
            "flops (I) stddev");
  // Unknown suffixes pass through untouched (treated as a literal name).
  EXPECT_EQ(query::resolve_metric_name("cycles.incl.bogus"),
            "cycles.incl.bogus");
  EXPECT_TRUE(query::is_ensemble_metric_suffix("delta"));
  EXPECT_TRUE(query::is_ensemble_metric_suffix("run0"));
  EXPECT_TRUE(query::is_ensemble_metric_suffix("run42"));
  EXPECT_FALSE(query::is_ensemble_metric_suffix("run"));
  EXPECT_FALSE(query::is_ensemble_metric_suffix("runx"));
  EXPECT_FALSE(query::is_ensemble_metric_suffix("bogus"));
  // In query position a dangling suffix is a parse error with a caret.
  EXPECT_THROW(query::parse("where cycles.incl.bogus > 0"), ParseError);
}

class InputsDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pv_ensemble_inputs_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    for (const char* f : {"w2.pvdb", "w0.pvdb", "w1.xml", "notes.txt"})
      std::ofstream(dir_ / f) << "x";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const char* f) const { return (dir_ / f).string(); }
  std::filesystem::path dir_;
};

TEST_F(InputsDir, DirectoryExpandsToSortedDatabases) {
  const std::vector<std::string> got = expand_inputs({dir_.string()});
  ASSERT_EQ(got.size(), 3u);  // notes.txt is not a database
  EXPECT_EQ(got[0], path("w0.pvdb"));
  EXPECT_EQ(got[1], path("w1.xml"));
  EXPECT_EQ(got[2], path("w2.pvdb"));
}

TEST_F(InputsDir, GlobMatchesAndSorts) {
  const std::vector<std::string> got =
      expand_inputs({(dir_ / "*.pvdb").string()});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], path("w0.pvdb"));
  EXPECT_EQ(got[1], path("w2.pvdb"));
  EXPECT_THROW(expand_inputs({(dir_ / "*.nothing").string()}),
               InvalidArgument);
}

TEST_F(InputsDir, LiteralsPassThroughInPlace) {
  const std::vector<std::string> got =
      expand_inputs({path("w2.pvdb"), path("w0.pvdb")});
  ASSERT_EQ(got.size(), 2u);  // literals keep caller order, no sorting
  EXPECT_EQ(got[0], path("w2.pvdb"));
  EXPECT_EQ(got[1], path("w0.pvdb"));
}

}  // namespace
}  // namespace pathview::ensemble
