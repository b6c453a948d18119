// The Calling Context and Flat views against their reference builds
// (view_oracles.hpp): the lazily copied CCT mirror against the eager one,
// the dense-array Flat View against the hash-map one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "pathview/core/cct_view.hpp"
#include "pathview/core/flat_view.hpp"
#include "pathview/core/hot_path.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/ui/export.hpp"
#include "pathview/ui/tree_table.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"
#include "view_oracles.hpp"

namespace pathview {
namespace {

using core::ViewNodeId;
using model::Event;

prof::CanonicalCct simulate(const workloads::Workload& w) {
  return prof::correlate(
      sim::ExecutionEngine(*w.program, *w.lowering, w.run).run(), *w.tree);
}

/// Sample values with no exact binary sum, so a changed summation order
/// changes bits: every sample scaled by a per-node factor near 1.1.
prof::CanonicalCct jittered(const prof::CanonicalCct& cct) {
  prof::CanonicalCct out = cct.clone_with_tree(&cct.tree());
  for (prof::CctNodeId id = 0; id < out.size(); ++id)
    out.add_samples(id, out.samples(id) * (0.1 + 1e-3 * (id % 97) / 7.0));
  return out;
}

/// Same nodes (every field, every child list) and the same table, bit for
/// bit, column by column.
void expect_same_view(const core::View& got, const core::View& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (ViewNodeId id = 0; id < got.size(); ++id) {
    const core::ViewNode& a = got.node(id);
    const core::ViewNode& b = want.node(id);
    ASSERT_EQ(a.parent, b.parent) << what << " node " << id;
    ASSERT_EQ(a.role, b.role) << what << " node " << id;
    ASSERT_EQ(a.children_built, b.children_built) << what << " node " << id;
    ASSERT_EQ(a.scope, b.scope) << what << " node " << id;
    ASSERT_EQ(a.call_site, b.call_site) << what << " node " << id;
    ASSERT_EQ(a.origin, b.origin) << what << " node " << id;
    ASSERT_EQ(a.sorts_applied, b.sorts_applied) << what << " node " << id;
    ASSERT_EQ(a.children, b.children) << what << " node " << id;
  }
  const metrics::MetricTable& ta = got.table();
  const metrics::MetricTable& tb = want.table();
  ASSERT_EQ(ta.num_columns(), tb.num_columns()) << what;
  ASSERT_EQ(ta.num_rows(), tb.num_rows()) << what;
  for (metrics::ColumnId c = 0; c < ta.num_columns(); ++c) {
    ASSERT_EQ(ta.desc(c).name, tb.desc(c).name) << what;
    ASSERT_EQ(std::memcmp(ta.column(c).data(), tb.column(c).data(),
                          sizeof(double) * ta.num_rows()),
              0)
        << what << " column " << ta.desc(c).name;
  }
}

/// A copy of `cct` with nodes no correlation produces but a decoded
/// database may hold: a loop scope repeated under another frame (so its
/// flat node has two parents) and a loop whose scope is kSNull, each with
/// a sampled statement below it.
prof::CanonicalCct with_foreign_scopes(const prof::CanonicalCct& cct) {
  prof::CanonicalCct out = cct.clone_with_tree(&cct.tree());
  prof::CctNodeId loop = prof::kCctNull;
  prof::CctNodeId stmt = prof::kCctNull;
  std::vector<prof::CctNodeId> frames;
  for (prof::CctNodeId id = 0; id < cct.size(); ++id) {
    const prof::CctNode& n = cct.node(id);
    if (n.kind == prof::CctKind::kFrame) frames.push_back(id);
    if (n.kind == prof::CctKind::kLoop && loop == prof::kCctNull) loop = id;
    if (n.kind == prof::CctKind::kStmt && stmt == prof::kCctNull) stmt = id;
  }
  if (loop == prof::kCctNull || frames.size() < 2) return out;
  model::EventVector ev;
  ev[Event::kCycles] = 3.25;
  const prof::CctNodeId host = frames.back() == cct.node(loop).parent
                                   ? frames.front()
                                   : frames.back();
  const prof::CctNodeId moved = out.find_or_add_child(
      host, prof::CctKind::kLoop, cct.node(loop).scope);
  out.add_samples(out.find_or_add_child(moved, prof::CctKind::kStmt,
                                        cct.node(stmt).scope),
                  ev);
  const prof::CctNodeId null_loop =
      out.find_or_add_child(host, prof::CctKind::kLoop, structure::kSNull);
  out.add_samples(out.find_or_add_child(null_loop, prof::CctKind::kStmt,
                                        cct.node(stmt).scope),
                  ev);
  return out;
}

TEST(FlatView, DenseBuildMatchesHashBuild) {
  std::vector<workloads::Workload> programs;
  for (const std::uint64_t seed : {1u, 4u, 7u, 12u, 30u})
    programs.push_back(workloads::make_random_program({.seed = seed}));
  programs.push_back(
      workloads::make_random_program({.seed = 9, .num_procs = 10}));
  std::size_t built = 0;
  for (const workloads::Workload& w : programs) {
    const prof::CanonicalCct simulated = jittered(simulate(w));
    const prof::CanonicalCct foreign = with_foreign_scopes(simulated);
    for (const prof::CanonicalCct* cct : {&simulated, &foreign}) {
      const metrics::Attribution attr =
          metrics::attribute_metrics(*cct, metrics::all_events());
      for (const core::RecursionPolicy policy :
           {core::RecursionPolicy::kExposedOnly,
            core::RecursionPolicy::kAllInstances}) {
        const core::FlatView got(*cct, attr, policy);
        const testutil::HashFlatView want(*cct, attr, policy);
        expect_same_view(got, want,
                         "program " + std::to_string(built / 4) + ", policy " +
                             std::to_string(static_cast<int>(policy)) +
                             (cct == &foreign ? ", foreign scopes" : ""));
        ++built;
      }
    }
  }
  // The recursive Fig. 2 program, where exposure decides every value.
  const workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  const metrics::Attribution attr =
      metrics::attribute_metrics(cct, std::array{Event::kCycles});
  for (const core::RecursionPolicy policy :
       {core::RecursionPolicy::kExposedOnly,
        core::RecursionPolicy::kAllInstances})
    expect_same_view(core::FlatView(cct, attr, policy),
                     testutil::HashFlatView(cct, attr, policy), "paper");
}

/// Sorts, reads, hot paths, renders and exports applied to both mirrors.
/// Levels the lazy view copies only after several keys (ties at zero in
/// the exclusive column) must still come out in the eager mirror's order.
TEST(CctView, LazyLevelsMatchEagerMirror) {
  for (const std::uint64_t seed : {2u, 5u, 11u}) {
    const workloads::Workload w =
        workloads::make_random_program({.seed = seed, .num_procs = 12});
    const prof::CanonicalCct cct = simulate(w);
    const metrics::Attribution attr = metrics::attribute_metrics(
        cct, std::array{Event::kCycles, Event::kInstructions});
    core::CctView lazy(cct, attr);
    testutil::EagerCctView eager(cct, attr);
    const std::string what = "seed " + std::to_string(seed);

    const metrics::ColumnId incl = attr.cols.inclusive(Event::kCycles);
    const metrics::ColumnId excl = attr.cols.exclusive(Event::kCycles);
    const metrics::ColumnId instrs = attr.cols.inclusive(Event::kInstructions);
    // A tie-heavy key: inclusive cycles capped at their median.
    std::vector<double> sorted(attr.table.column(incl).begin(),
                               attr.table.column(incl).end());
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const std::string capped_formula =
        "min($" + std::to_string(incl) + ", " +
        std::to_string(sorted[sorted.size() / 2]) + ")";
    const metrics::ColumnId capped =
        metrics::add_derived_metric(lazy.table(), "capped", capped_formula);
    ASSERT_EQ(metrics::add_derived_metric(eager.table(), "capped",
                                          capped_formula),
              capped);
    const std::span<const double> capped_col = lazy.table().column(capped);
    const double cap = *std::max_element(capped_col.begin(), capped_col.end());
    const auto ties = std::count(capped_col.begin(), capped_col.end(), cap);
    ASSERT_GT(static_cast<std::size_t>(ties), cct.size() / 4) << what;

    std::mt19937_64 rng(seed);
    auto both = [&](auto&& op) {
      op(static_cast<core::View&>(lazy));
      op(static_cast<core::View&>(eager));
    };
    auto read_some = [&] {
      // Read a few random levels, so some are copied between the keys.
      for (int k = 0; k < 8; ++k) {
        const auto id = static_cast<ViewNodeId>(rng() % cct.size());
        ASSERT_EQ(lazy.children_of(id), eager.children_of(id)) << what;
      }
    };
    both([&](core::View& v) { v.sort_by(instrs, false); });
    read_some();
    both([&](core::View& v) { v.sort_by(excl, true); });
    read_some();
    both([&](core::View& v) { v.sort_by(capped, true); });

    std::size_t unbuilt = 0;
    for (ViewNodeId id = 0; id < lazy.size(); ++id)
      unbuilt += !lazy.node(id).children_built;
    EXPECT_GT(unbuilt, 0u) << what << ": the lazy mirror copied every level";

    std::vector<ViewNodeId> path_lazy = core::hot_path(lazy, lazy.root(), incl);
    std::vector<ViewNodeId> path_eager =
        core::hot_path(eager, eager.root(), incl);
    ASSERT_EQ(path_lazy, path_eager) << what;

    ui::ExpansionState exp;
    exp.expand(lazy.root());
    exp.expand_path(path_lazy);
    for (int k = 0; k < 20; ++k)
      exp.expand(static_cast<ViewNodeId>(rng() % cct.size()));
    ui::TreeTableOptions opts;
    opts.show_ids = true;
    opts.highlight = path_lazy;
    EXPECT_EQ(ui::render_tree_table(lazy, exp, opts),
              ui::render_tree_table(eager, exp, opts))
        << what;

    both([&](core::View& v) { v.sort_by(capped, false); });
    EXPECT_EQ(ui::export_csv(lazy), ui::export_csv(eager)) << what;
    EXPECT_EQ(ui::export_json(lazy), ui::export_json(eager)) << what;
    for (ViewNodeId id = 0; id < lazy.size(); ++id)
      ASSERT_EQ(lazy.children_of(id), eager.children_of(id))
          << what << " level " << id;
  }
}

}  // namespace
}  // namespace pathview
