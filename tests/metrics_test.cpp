// Unit tests for metric attribution (Eq. 1/2), the formula language,
// derived metrics, and the canned waste/efficiency/scaling-loss metrics.
#include <gtest/gtest.h>

#include "pathview/metrics/attribution.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/metrics/formula.hpp"
#include "pathview/metrics/waste.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/paper_example.hpp"

namespace pathview::metrics {
namespace {

using model::Event;

// --- formula language -------------------------------------------------------

MetricTable one_row_table(std::initializer_list<double> cols) {
  MetricTable t;
  t.ensure_rows(1);
  ColumnId c = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    t.add_column(MetricDesc{"c" + std::to_string(c++), MetricKind::kRaw,
                            Event::kCycles, true, {}});
  }
  c = 0;
  for (double v : cols) t.set(c++, 0, v);
  return t;
}

double eval(const std::string& f, std::initializer_list<double> cols = {}) {
  const MetricTable t = one_row_table(cols);
  return Formula::parse(f).evaluate(t, 0);
}

TEST(Formula, ArithmeticPrecedence) {
  EXPECT_DOUBLE_EQ(eval("1 + 2 * 3"), 7.0);
  EXPECT_DOUBLE_EQ(eval("(1 + 2) * 3"), 9.0);
  EXPECT_DOUBLE_EQ(eval("10 - 4 - 3"), 3.0);      // left associative
  EXPECT_DOUBLE_EQ(eval("20 / 2 / 5"), 2.0);
  EXPECT_DOUBLE_EQ(eval("-3 + 5"), 2.0);
  EXPECT_DOUBLE_EQ(eval("2 ^ 3 ^ 2"), 512.0);     // right associative
  EXPECT_DOUBLE_EQ(eval("-2 ^ 2"), -4.0);         // unary minus binds last
}

TEST(Formula, ScientificNumbers) {
  EXPECT_DOUBLE_EQ(eval("1.5e3 + 2E-1"), 1500.2);
  EXPECT_DOUBLE_EQ(eval("0.25 * 4"), 1.0);
}

TEST(Formula, ColumnReferences) {
  EXPECT_DOUBLE_EQ(eval("$0 * 2 + $1", {10.0, 5.0}), 25.0);
  EXPECT_DOUBLE_EQ(eval("$1 / $0", {4.0, 10.0}), 2.5);
}

TEST(Formula, Functions) {
  EXPECT_DOUBLE_EQ(eval("min(3, 8)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("max(3, 8)"), 8.0);
  EXPECT_DOUBLE_EQ(eval("abs(2 - 10)"), 8.0);
  EXPECT_DOUBLE_EQ(eval("sqrt(81)"), 9.0);
  EXPECT_DOUBLE_EQ(eval("pow(2, 10)"), 1024.0);
  EXPECT_NEAR(eval("log(exp(3))"), 3.0, 1e-12);
}

TEST(Formula, DivisionByZeroYieldsBlankZero) {
  // x/0 -> 0 so sparse (blank) denominators don't poison derived columns.
  EXPECT_DOUBLE_EQ(eval("5 / $0", {0.0}), 0.0);
}

TEST(Formula, ReferencedColumns) {
  const Formula f = Formula::parse("$3 + $1 * $3");
  EXPECT_EQ(f.referenced_columns(), (std::vector<ColumnId>{1, 3}));
}

TEST(Formula, ParseErrors) {
  EXPECT_THROW(Formula::parse(""), InvalidArgument);
  EXPECT_THROW(Formula::parse("1 +"), InvalidArgument);
  EXPECT_THROW(Formula::parse("(1"), InvalidArgument);
  EXPECT_THROW(Formula::parse("$x"), InvalidArgument);
  EXPECT_THROW(Formula::parse("foo(1)"), InvalidArgument);
  EXPECT_THROW(Formula::parse("min(1)"), InvalidArgument);
  EXPECT_THROW(Formula::parse("1 2"), InvalidArgument);
}

TEST(Formula, MissingColumnThrowsAtEvaluation) {
  const MetricTable t = one_row_table({1.0});
  EXPECT_THROW(Formula::parse("$9").evaluate(t, 0), InvalidArgument);
}

// --- metric table -----------------------------------------------------------

TEST(MetricTable, GrowsRowsAcrossColumns) {
  MetricTable t;
  const ColumnId a = t.add_column(
      MetricDesc{"a", MetricKind::kRaw, Event::kCycles, true, {}});
  t.ensure_rows(3);
  const ColumnId b = t.add_column(
      MetricDesc{"b", MetricKind::kRaw, Event::kCycles, false, {}});
  EXPECT_EQ(t.num_rows(), 3u);
  t.set(a, 2, 5.0);
  t.set(b, 0, 7.0);
  t.ensure_rows(5);
  EXPECT_EQ(t.get(a, 2), 5.0);
  EXPECT_EQ(t.get(b, 0), 7.0);
  EXPECT_EQ(t.get(b, 4), 0.0);
  EXPECT_DOUBLE_EQ(t.column_sum(a), 5.0);
  EXPECT_EQ(t.find("b"), b);
  EXPECT_EQ(t.find("zzz"), std::nullopt);
}

TEST(MetricTable, InternsColumnNames) {
  MetricTable t;
  const ColumnId a = t.add_column(
      MetricDesc{"cycles (I)", MetricKind::kRaw, Event::kCycles, true, {}});
  const ColumnId b = t.add_column(
      MetricDesc{"flops (I)", MetricKind::kRaw, Event::kFlops, true, {}});
  const ColumnId a2 = t.add_column(
      MetricDesc{"cycles (I)", MetricKind::kRaw, Event::kCycles, true, {}});
  // Equal names share one interned id; distinct names never collide.
  EXPECT_EQ(t.name_id(a), t.name_id(a2));
  EXPECT_NE(t.name_id(a), t.name_id(b));
  // Lookup by name returns the FIRST column carrying the name.
  EXPECT_EQ(t.find("cycles (I)"), a);
  EXPECT_EQ(t.find("flops (I)"), b);
}

TEST(MetricTable, ScanMatchesTheNaiveRowLoop) {
  MetricTable t;
  const ColumnId c = t.add_column(
      MetricDesc{"c", MetricKind::kRaw, Event::kCycles, true, {}});
  const ColumnId other = t.add_column(
      MetricDesc{"other", MetricKind::kRaw, Event::kCycles, true, {}});
  t.ensure_rows(257);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    t.set(c, r, static_cast<double>((r * 7919) % 101));
    t.set(other, r, 1e9);  // never touched by the scan below
  }
  const double bound = 50.0;
  std::vector<RowId> expect;
  for (std::size_t r = 0; r < t.num_rows(); ++r)
    if (t.get(c, r) > bound) expect.push_back(static_cast<RowId>(r));
  std::vector<RowId> got;
  std::vector<double> vals;
  const std::size_t n = t.scan(
      c, [&](double v) { return v > bound; },
      [&](RowId r, double v) {
        got.push_back(r);
        vals.push_back(v);
      });
  EXPECT_EQ(n, expect.size());
  EXPECT_EQ(got, expect);  // row order, same rows
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(vals[i], t.get(c, got[i]));
}

TEST(MetricTable, GatherCopiesRowsAndChecksBounds) {
  MetricTable t;
  const ColumnId c = t.add_column(
      MetricDesc{"c", MetricKind::kRaw, Event::kCycles, true, {}});
  t.ensure_rows(5);
  for (std::size_t r = 0; r < 5; ++r) t.set(c, r, static_cast<double>(r * r));
  const std::vector<RowId> rows{4, 0, 2};
  std::vector<double> out(3);
  t.gather(c, rows, out);
  EXPECT_EQ(out, (std::vector<double>{16.0, 0.0, 4.0}));
  std::vector<double> wrong_size(2);
  EXPECT_THROW(t.gather(c, rows, wrong_size), InvalidArgument);
  const std::vector<RowId> oob{1, 9};
  std::vector<double> out2(2);
  EXPECT_THROW(t.gather(c, oob, out2), InvalidArgument);
}

TEST(MetricTable, AddRowsAppendsZeroFilled) {
  MetricTable t;
  const ColumnId c = t.add_column(
      MetricDesc{"c", MetricKind::kRaw, Event::kCycles, true, {}});
  EXPECT_EQ(t.add_rows(2), 0u);
  t.set(c, 1, 3.0);
  const RowId first = t.add_rows(3);
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.get(c, 1), 3.0);  // existing cells survive the growth
  for (RowId r = first; r < 5; ++r) EXPECT_EQ(t.get(c, r), 0.0);
  // ensure_rows never shrinks.
  t.ensure_rows(1);
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST(MetricTable, ColumnSpansAreContiguousAndWritable) {
  MetricTable t;
  const ColumnId c = t.add_column(
      MetricDesc{"c", MetricKind::kRaw, Event::kCycles, true, {}});
  t.ensure_rows(4);
  std::span<double> w = t.column_mut(c);
  ASSERT_EQ(w.size(), 4u);
  for (std::size_t r = 0; r < w.size(); ++r) w[r] = static_cast<double>(r);
  const std::span<const double> v = t.column(c);
  EXPECT_EQ(v.data(), w.data());
  EXPECT_EQ(t.get(c, 3), 3.0);
  EXPECT_DOUBLE_EQ(t.column_sum(c), 6.0);
}

TEST(MetricTable, CopiesShareColumnsAndFreezeThem) {
  MetricTable t;
  t.ensure_rows(3);
  const ColumnId c = t.add_column(
      MetricDesc{"c", MetricKind::kRaw, Event::kCycles, true, {}});
  t.set(c, 1, 2.0);
  {
    const MetricTable copy = t;
    EXPECT_EQ(copy.column(c).data(), t.column(c).data());
    // While shared, neither side may write, not even the creator.
    EXPECT_FALSE(copy.is_writable(c));
    EXPECT_FALSE(t.is_writable(c));
    EXPECT_THROW(t.set(c, 0, 1.0), InvalidArgument);
    EXPECT_THROW(t.ensure_rows(4), InvalidArgument);
    EXPECT_EQ(t.num_rows(), 3u);
    t.ensure_rows(2);  // no growth, no write
  }
  // The creator alone holds it again.
  EXPECT_TRUE(t.is_writable(c));
  t.add(c, 1, 1.0);
  EXPECT_EQ(t.get(c, 1), 3.0);

  // A column shared into another table is never that table's to write.
  MetricTable view;
  view.ensure_rows(3);
  const ColumnId v = view.add_column(t, c);
  EXPECT_EQ(view.column(v).data(), t.column(c).data());
  EXPECT_EQ(view.desc(v).name, "c");
  EXPECT_THROW(view.column_mut(v), InvalidArgument);
  MetricTable short_table;
  EXPECT_THROW(short_table.add_column(t, c), InvalidArgument);
}

TEST(MetricTable, GeneratedColumnsFillOnceOnFirstRead) {
  int runs = 0;
  auto gen = std::make_shared<ColumnGenerator>([&runs] {
    ++runs;
    return std::vector<std::vector<double>>{{1.0, 2.0}, {3.0, 4.0}};
  });
  MetricTable t;
  t.ensure_rows(2);
  const ColumnId a = t.add_column(
      MetricDesc{"a", MetricKind::kRaw, Event::kCycles, true, {}}, gen, 0);
  const ColumnId b = t.add_column(
      MetricDesc{"b", MetricKind::kRaw, Event::kCycles, true, {}}, gen, 1);
  EXPECT_FALSE(t.buffer(a).generated());
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(t.get(b, 1), 4.0);
  EXPECT_EQ(t.get(a, 0), 1.0);
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(t.buffer(a).generated());
  EXPECT_FALSE(t.is_writable(a));
  EXPECT_THROW(t.set(a, 0, 0.0), InvalidArgument);

  // A block whose columns do not match the row count is refused on read.
  auto bad = std::make_shared<ColumnGenerator>(
      [] { return std::vector<std::vector<double>>{{1.0}}; });
  const ColumnId c = t.add_column(
      MetricDesc{"c", MetricKind::kRaw, Event::kCycles, true, {}}, bad, 0);
  EXPECT_THROW(t.column(c), InvalidArgument);
}

TEST(MetricTable, DegradedBitRoundTripsThroughAttribution) {
  workloads::PaperExample ex;
  prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  cct.set_degraded(true);
  const Attribution attr = attribute_metrics(cct, all_events());
  EXPECT_TRUE(attr.table.degraded());
  MetricTable plain;
  EXPECT_FALSE(plain.degraded());
  plain.set_degraded(true);
  EXPECT_TRUE(plain.degraded());
  plain.set_degraded(false);
  EXPECT_FALSE(plain.degraded());
}

// --- derived metrics ---------------------------------------------------------

TEST(Derived, ComputesAndRecomputes) {
  MetricTable t;
  const ColumnId a = t.add_column(
      MetricDesc{"a", MetricKind::kRaw, Event::kCycles, true, {}});
  t.ensure_rows(2);
  t.set(a, 0, 3.0);
  t.set(a, 1, 4.0);
  const ColumnId d = add_derived_metric(t, "twice", "$0 * 2");
  EXPECT_EQ(t.get(d, 0), 6.0);
  EXPECT_EQ(t.get(d, 1), 8.0);
  t.set(a, 1, 10.0);
  recompute_derived(t, d);
  EXPECT_EQ(t.get(d, 1), 20.0);
  EXPECT_THROW(recompute_derived(t, a), InvalidArgument);
}

TEST(Derived, CanReferenceDerivedColumns) {
  MetricTable t;
  t.add_column(MetricDesc{"a", MetricKind::kRaw, Event::kCycles, true, {}});
  t.ensure_rows(1);
  t.set(0, 0, 5.0);
  add_derived_metric(t, "d1", "$0 + 1");
  const ColumnId d2 = add_derived_metric(t, "d2", "$1 * 10");
  EXPECT_EQ(t.get(d2, 0), 60.0);
}

TEST(Derived, RejectsMissingColumn) {
  MetricTable t;
  EXPECT_THROW(add_derived_metric(t, "bad", "$5 + 1"), InvalidArgument);
}

// --- waste / efficiency / scaling loss ---------------------------------------

TEST(Waste, FpWasteAndEfficiency) {
  MetricTable t;
  const ColumnId cyc = t.add_column(
      MetricDesc{"cyc", MetricKind::kRaw, Event::kCycles, true, {}});
  const ColumnId flops = t.add_column(
      MetricDesc{"fp", MetricKind::kRaw, Event::kFlops, true, {}});
  t.ensure_rows(1);
  t.set(cyc, 0, 100.0);
  t.set(flops, 0, 24.0);  // 6% of peak (4/cycle)
  const ColumnId w = add_fp_waste_metric(t, cyc, flops, 4.0);
  const ColumnId e = add_relative_efficiency_metric(t, cyc, flops, 4.0);
  EXPECT_DOUBLE_EQ(t.get(w, 0), 376.0);
  EXPECT_DOUBLE_EQ(t.get(e, 0), 0.06);
  EXPECT_THROW(add_fp_waste_metric(t, cyc, flops, 0.0), InvalidArgument);
}

TEST(Waste, ScalingLoss) {
  MetricTable t;
  const ColumnId base = t.add_column(
      MetricDesc{"base", MetricKind::kRaw, Event::kCycles, true, {}});
  const ColumnId scaled = t.add_column(
      MetricDesc{"scaled", MetricKind::kRaw, Event::kCycles, true, {}});
  t.ensure_rows(2);
  // Strong scaling over rank-aggregated totals: conserved totals -> zero
  // loss; 1300 where 1000 was expected -> loss 300.
  t.set(base, 0, 1000.0);
  t.set(scaled, 0, 1000.0);
  t.set(base, 1, 1000.0);
  t.set(scaled, 1, 1300.0);
  const ColumnId loss = add_scaling_loss_metric(t, base, scaled, 64, 128);
  EXPECT_DOUBLE_EQ(t.get(loss, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.get(loss, 1), 300.0);
  // Weak scaling: the ideal total doubles with the ranks.
  const ColumnId wloss = add_scaling_loss_metric(t, base, scaled, 64, 128,
                                                 ScalingMode::kWeak);
  EXPECT_DOUBLE_EQ(t.get(wloss, 0), -1000.0);
  EXPECT_DOUBLE_EQ(t.get(wloss, 1), -700.0);
}

// --- attribution (unit level; Fig. 2 is covered by fig2_test) ----------------

TEST(Attribution, InclusivePlusRules) {
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  const Attribution attr = attribute_metrics(cct, all_events());
  // Root inclusive == total samples; root exclusive == 0.
  EXPECT_EQ(attr.table.get(attr.cols.inclusive(Event::kCycles), 0), 10.0);
  EXPECT_EQ(attr.table.get(attr.cols.exclusive(Event::kCycles), 0), 0.0);
  // Sum of exclusive over frames == total (each sample in exactly one frame).
  double frame_excl = 0;
  cct.walk([&](prof::CctNodeId id, int) {
    if (cct.node(id).kind == prof::CctKind::kFrame)
      frame_excl += attr.table.get(attr.cols.exclusive(Event::kCycles), id);
  });
  EXPECT_EQ(frame_excl, 10.0);
}

}  // namespace
}  // namespace pathview::metrics
