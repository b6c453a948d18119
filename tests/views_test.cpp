// Tests for view mechanics beyond the Fig. 2 golden values: lazy
// construction of the Callers View, sorting (lazy sort history against the
// eager oracle, NaN keys), flattening.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <span>

#include "pathview/support/error.hpp"

#include "pathview/core/callers_view.hpp"
#include "pathview/core/cct_view.hpp"
#include "pathview/core/exposure.hpp"
#include "pathview/core/flat_view.hpp"
#include "pathview/core/flatten.hpp"
#include "pathview/core/sort.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/ui/controller.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"
#include "sort_oracle.hpp"
#include "test_util.hpp"

namespace pathview::core {
namespace {

using model::Event;
using testutil::child_labeled;
using testutil::incl_cyc;

struct Fixture {
  Fixture()
      : cct(prof::correlate(ex.profile(), ex.tree())),
        attr(metrics::attribute_metrics(cct,
                                        std::array{model::Event::kCycles})) {}
  workloads::PaperExample ex;
  prof::CanonicalCct cct;
  metrics::Attribution attr;
};

TEST(CallersViewLazy, OnlyTopLevelBuiltInitially) {
  Fixture f;
  CallersView lazy(f.cct, f.attr, {RecursionPolicy::kExposedOnly, true});
  // Root + one entry per procedure (f, m, g, h) = 5 nodes, no caller levels.
  EXPECT_EQ(lazy.size(), 5u);
  EXPECT_EQ(lazy.levels_built(), 0u);

  CallersView eager(f.cct, f.attr, {RecursionPolicy::kExposedOnly, false});
  EXPECT_GT(eager.size(), lazy.size());
  EXPECT_GT(eager.levels_built(), 0u);
}

TEST(CallersViewLazy, ExpansionMaterializesOneLevel) {
  Fixture f;
  CallersView v(f.cct, f.attr, {RecursionPolicy::kExposedOnly, true});
  const ViewNodeId ga = child_labeled(v, v.root(), "g", NodeRole::kProc);
  const std::size_t before = v.size();
  const auto& children = v.children_of(ga);
  EXPECT_EQ(children.size(), 3u);  // f, g, m callers
  EXPECT_EQ(v.size(), before + 3);
  EXPECT_EQ(v.levels_built(), 1u);
  // Repeated access does not rebuild.
  (void)v.children_of(ga);
  EXPECT_EQ(v.levels_built(), 1u);
}

TEST(CallersViewLazy, LazyAndEagerAgreeOnValues) {
  Fixture f;
  CallersView lazy(f.cct, f.attr, {RecursionPolicy::kExposedOnly, true});
  CallersView eager(f.cct, f.attr, {RecursionPolicy::kExposedOnly, false});
  // Fully expand the lazy one, then compare every (label-path, value).
  std::function<void(View&, ViewNodeId, std::string, std::vector<std::pair<std::string, double>>&)>
      collect = [&](View& v, ViewNodeId id, std::string path,
                    std::vector<std::pair<std::string, double>>& out) {
        path += "/" + v.label(id);
        out.emplace_back(path, incl_cyc(v, id, f.attr));
        for (ViewNodeId c : v.children_of(id)) collect(v, c, path, out);
      };
  std::vector<std::pair<std::string, double>> a, b;
  collect(lazy, lazy.root(), "", a);
  collect(eager, eager.root(), "", b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Sort, ChildrenOrderedByMetric) {
  Fixture f;
  CctView v(f.cct, f.attr);
  const metrics::ColumnId incl = f.attr.cols.inclusive(Event::kCycles);
  const ViewNodeId m = child_labeled(v, v.root(), "m");
  sort_children_by(v, m, incl, /*descending=*/true);
  const auto& ch = v.node(m).children;
  ASSERT_EQ(ch.size(), 2u);
  EXPECT_GE(v.table().get(incl, ch[0]), v.table().get(incl, ch[1]));
  sort_children_by(v, m, incl, /*descending=*/false);
  const auto& ch2 = v.node(m).children;
  EXPECT_LE(v.table().get(incl, ch2[0]), v.table().get(incl, ch2[1]));
}

TEST(Sort, SortIsAPermutation) {
  Fixture f;
  FlatView v(f.cct, f.attr);
  std::vector<ViewNodeId> before;
  for (ViewNodeId id = 0; id < v.size(); ++id)
    for (ViewNodeId c : v.node(id).children) before.push_back(c);
  sort_built_by(v, f.attr.cols.exclusive(Event::kCycles));
  std::vector<ViewNodeId> after;
  for (ViewNodeId id = 0; id < v.size(); ++id)
    for (ViewNodeId c : v.node(id).children) after.push_back(c);
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

TEST(Sort, ByLabel) {
  Fixture f;
  CallersView v(f.cct, f.attr);
  sort_children_by_label(v, v.root());
  const auto& ch = v.node(v.root()).children;
  for (std::size_t i = 1; i < ch.size(); ++i)
    EXPECT_LE(v.label(ch[i - 1]), v.label(ch[i]));
}

TEST(Flatten, ElidesOneLevelAndRestores) {
  Fixture f;
  FlatView v(f.cct, f.attr);
  FlattenState fs(v);
  // Level 0: the module; level 1: files; level 2: procedures.
  ASSERT_EQ(fs.roots().size(), 1u);
  EXPECT_EQ(v.label(fs.roots()[0]), "a.out");
  ASSERT_TRUE(fs.flatten());
  EXPECT_EQ(fs.roots().size(), 2u);  // file1.c, file2.c
  ASSERT_TRUE(fs.flatten());
  EXPECT_EQ(fs.roots().size(), 4u);  // f, m, g, h
  EXPECT_EQ(fs.depth(), 2u);
  EXPECT_TRUE(fs.unflatten());
  EXPECT_EQ(fs.roots().size(), 2u);
  EXPECT_TRUE(fs.unflatten());
  EXPECT_FALSE(fs.unflatten());  // at the initial level
}

TEST(Flatten, LeavesAreKept) {
  Fixture f;
  FlatView v(f.cct, f.attr);
  FlattenState fs(v);
  // Flatten all the way down: leaves must persist, and flatten() must
  // eventually report no change.
  int guard = 0;
  while (fs.flatten() && ++guard < 32) {
  }
  EXPECT_LT(guard, 32);
  for (ViewNodeId id : fs.roots()) EXPECT_TRUE(v.children_of(id).empty());
}

TEST(Exposure, AncestorIndexAndExposedSubset) {
  Fixture f;
  AncestorIndex anc(f.cct);
  // Collect g's frames: g1 is an ancestor of g2; g3 is separate.
  std::vector<prof::CctNodeId> gs;
  f.cct.walk([&](prof::CctNodeId id, int) {
    const prof::CctNode& n = f.cct.node(id);
    if (n.kind == prof::CctKind::kFrame && f.cct.tree().name_of(n.scope) == "g")
      gs.push_back(id);
  });
  ASSERT_EQ(gs.size(), 3u);
  const auto exposed = anc.exposed(gs);
  EXPECT_EQ(exposed.size(), 2u);
  for (prof::CctNodeId e : exposed)
    for (prof::CctNodeId o : exposed)
      if (e != o) EXPECT_FALSE(anc.is_ancestor(e, o));
  EXPECT_TRUE(anc.is_ancestor(f.cct.root(), gs[0]));
}

TEST(ViewBasics, LabelsAndCallSiteFlags) {
  Fixture f;
  CctView v(f.cct, f.attr);
  const ViewNodeId m = child_labeled(v, v.root(), "m");
  EXPECT_FALSE(v.is_call_site(m));  // entry frame has no call site
  const ViewNodeId fr = child_labeled(v, m, "f");
  EXPECT_TRUE(v.is_call_site(fr));
  EXPECT_EQ(view_type_name(v.type()), std::string("Calling Context View"));
}

}  // namespace
}  // namespace pathview::core

namespace pathview::core {
namespace {

TEST(LazyDerived, DerivedColumnsRecomputeOnMaterialization) {
  // Define a derived metric on a lazy Callers View, then expand: the new
  // rows must carry correct derived values (View::ensure_children
  // recomputes derived columns when rows appear).
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  const metrics::Attribution attr =
      metrics::attribute_metrics(cct, std::array{model::Event::kCycles});
  CallersView v(cct, attr, {RecursionPolicy::kExposedOnly, /*lazy=*/true});
  const metrics::ColumnId incl = attr.cols.inclusive(model::Event::kCycles);
  const metrics::ColumnId d = metrics::add_derived_metric(
      v.table(), "x10", "$" + std::to_string(incl) + " * 10");

  const ViewNodeId ga = testutil::child_labeled(v, v.root(), "g",
                                                NodeRole::kProc);
  EXPECT_DOUBLE_EQ(v.table().get(d, ga), 90.0);  // 9 * 10

  // Materialize a new level; its derived cells must be correct, not zero.
  for (ViewNodeId c : v.children_of(ga))
    EXPECT_DOUBLE_EQ(v.table().get(d, c), 10.0 * v.table().get(incl, c));
}

TEST(Flatten, MetricsAreUnaffectedByFlattening) {
  // Flattening is pure presentation: it must not change any node's values.
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  const metrics::Attribution attr =
      metrics::attribute_metrics(cct, std::array{model::Event::kCycles});
  FlatView v(cct, attr);
  const metrics::ColumnId incl = attr.cols.inclusive(model::Event::kCycles);
  std::vector<double> before;
  for (ViewNodeId id = 0; id < v.size(); ++id)
    before.push_back(v.table().get(incl, id));
  FlattenState fs(v);
  while (fs.flatten()) {
  }
  for (ViewNodeId id = 0; id < before.size(); ++id)
    EXPECT_EQ(v.table().get(incl, id), before[id]);
}

}  // namespace
}  // namespace pathview::core

namespace pathview::core {
namespace {

/// A random program's CCT, attributed for cycles and instructions.
struct RandomFixture {
  explicit RandomFixture(std::uint64_t seed)
      : w(workloads::make_random_program({.seed = seed, .num_procs = 10})),
        cct(prof::correlate(
            sim::ExecutionEngine(*w.program, *w.lowering, w.run).run(),
            *w.tree)),
        attr(metrics::attribute_metrics(
            cct, std::array{model::Event::kCycles,
                            model::Event::kInstructions})) {}
  workloads::Workload w;
  prof::CanonicalCct cct;
  metrics::Attribution attr;
};

/// A derived formula that is NaN wherever exclusive cycles fall below a
/// quarter of inclusive ones (sqrt of a negative), real elsewhere.
std::string nan_formula(const metrics::Attribution& attr) {
  return "sqrt($" +
         std::to_string(attr.cols.exclusive(model::Event::kCycles)) +
         " - 0.25 * $" +
         std::to_string(attr.cols.inclusive(model::Event::kCycles)) + ")";
}

std::vector<std::vector<ViewNodeId>> built_levels(const View& v) {
  std::vector<std::vector<ViewNodeId>> out;
  for (ViewNodeId id = 0; id < v.size(); ++id)
    out.push_back(v.node(id).children);
  return out;
}

TEST(Sort, ResortingANaNColumnIsIdempotent) {
  const RandomFixture f(3);
  CctView v(f.cct, f.attr);
  const metrics::ColumnId nan_col =
      metrics::add_derived_metric(v.table(), "nan", nan_formula(f.attr));
  const std::span<const double> col = v.table().column(nan_col);
  std::size_t nans = 0;
  for (const double x : col) nans += std::isnan(x) ? 1 : 0;
  ASSERT_GT(nans, 1u);
  ASSERT_LT(nans, col.size() - 1);
  for (const bool desc : {true, false}) {
    sort_built_by(v, nan_col, desc);
    const auto once = built_levels(v);
    sort_built_by(v, nan_col, desc);
    EXPECT_EQ(built_levels(v), once) << (desc ? "desc" : "asc");
    // NaN last in both directions.
    for (const auto& level : once)
      for (std::size_t i = 1; i < level.size(); ++i)
        EXPECT_FALSE(std::isnan(col[level[i - 1]]) &&
                     !std::isnan(col[level[i]]));
  }
}

TEST(Sort, SortByIsRecordedAndAppliedOnRead) {
  Fixture f;
  CctView v(f.cct, f.attr);
  const metrics::ColumnId incl = f.attr.cols.inclusive(Event::kCycles);
  const metrics::ColumnId excl = f.attr.cols.exclusive(Event::kCycles);
  EXPECT_TRUE(v.sort_history().empty());
  v.sort_by(incl);
  v.sort_by(incl);  // consecutive repeats collapse
  v.sort_by(excl, false);
  v.sort_by(incl);
  EXPECT_EQ(v.sort_history().size(), 3u);
  EXPECT_EQ(v.sort_history().back(), (SortKey{incl, true}));
  EXPECT_THROW(v.sort_by(99), InvalidArgument);
  // Nothing moved yet; a read brings the level up to date.
  const ViewNodeId m = child_labeled(v, v.root(), "m");
  const std::vector<ViewNodeId> unsorted = v.node(m).children;
  std::vector<ViewNodeId> expect = unsorted;
  sort_level(expect, v.table().column(excl), false);
  sort_level(expect, v.table().column(incl), true);
  EXPECT_EQ(v.children_of(m), expect);
}

// Lazy ordering (View::sort_by + catch-up in children_of) against the eager
// oracle over random op sequences on all three views: every render and, at
// the end, every level must agree.
TEST(LazySortOracle, RandomOpSequencesMatchEagerReplay) {
  for (const std::uint64_t seed : {1u, 2u, 5u, 9u}) {
    const RandomFixture f(seed);
    ui::ViewerController lazy(f.cct, f.attr);
    testutil::EagerSortOracle eager(f.cct, f.attr);
    const metrics::ColumnId nan_col =
        lazy.add_derived("nan", nan_formula(f.attr));
    ASSERT_EQ(eager.add_derived("nan", nan_formula(f.attr)), nan_col);
    const std::array<metrics::ColumnId, 4> cols = {
        f.attr.cols.inclusive(Event::kCycles),
        f.attr.cols.exclusive(Event::kCycles),  // many ties at zero
        f.attr.cols.exclusive(Event::kInstructions), nan_col};
    ui::TreeTableOptions opts;
    opts.show_ids = true;

    std::mt19937_64 rng(seed);
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    for (int step = 0; step < 400; ++step) {
      ASSERT_EQ(lazy.current().size(), eager.view().size());
      const auto node = static_cast<ViewNodeId>(pick(lazy.current().size()));
      switch (pick(9)) {
        case 0:
        case 1: {
          const metrics::ColumnId c = cols[pick(cols.size())];
          const bool desc = pick(2) == 0;
          lazy.sort_by(c, desc);
          eager.sort_by(c, desc);
          break;
        }
        case 2:
          lazy.expand(node);
          eager.expand(node);
          break;
        case 3:
          lazy.collapse(node);
          eager.collapse(node);
          break;
        case 4: {
          const metrics::ColumnId c = cols[pick(cols.size())];
          ASSERT_EQ(lazy.run_hot_path(node, c), eager.run_hot_path(node, c));
          break;
        }
        case 5:
          if (pick(3) == 0) {
            ASSERT_EQ(lazy.unflatten(), eager.unflatten());
          } else {
            ASSERT_EQ(lazy.flatten(), eager.flatten());
          }
          break;
        case 6: {
          const auto t = static_cast<ViewType>(pick(3));
          lazy.select_view(t);
          eager.select_view(t);
          break;
        }
        default:
          ASSERT_EQ(lazy.render(opts), eager.render(opts))
              << "seed " << seed << " step " << step;
          break;
      }
    }
    for (const ViewType t :
         {ViewType::kCallingContext, ViewType::kCallers, ViewType::kFlat}) {
      lazy.select_view(t);
      eager.select_view(t);
      EXPECT_EQ(lazy.render(opts), eager.render(opts)) << "seed " << seed;
      for (ViewNodeId id = 0; id < lazy.current().size(); ++id)
        ASSERT_EQ(lazy.current().children_of(id), eager.children_of(id))
            << "seed " << seed << " node " << id;
    }
  }
}

}  // namespace
}  // namespace pathview::core
