// Golden tests for pathview::query: the text grammar (including byte-offset
// diagnostics), call-path pattern matching (recursion, '**'), predicate
// compilation (total folding, the columnar fast path), and deterministic
// ordering of results — plus oracle checks of the two match strategies
// (frame-list pass vs pruning DFS vs the pass over every node) and of top-k
// selection vs a full sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "pathview/metrics/attribution.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/query/pattern.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/query/query.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pathview::query {
namespace {

using model::Event;

// --- grammar ----------------------------------------------------------------

/// Canonical text after a parse round trip.
std::string canon(const std::string& text) { return to_text(parse(text)); }

/// Byte offset carried by the ParseError `text` provokes (asserts it throws).
std::size_t parse_offset(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const ParseError& e) {
    return e.offset();
  }
  ADD_FAILURE() << "expected ParseError for: " << text;
  return static_cast<std::size_t>(-1);
}

TEST(QueryGrammar, ParsesTheHeadlineQuery) {
  const Query q = parse(
      "match 'main/**/mpi_*' where cycles.incl > 0.05*total "
      "order by cycles.excl desc limit 20");
  EXPECT_EQ(q.pattern, "main/**/mpi_*");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->op, ExprOp::kGt);
  EXPECT_EQ(q.order_by, "cycles (E)");  // EVENT.excl resolves at parse time
  EXPECT_TRUE(q.order_desc);
  EXPECT_EQ(q.limit, 20u);
}

TEST(QueryGrammar, ClausesComposeInAnyOrder) {
  const std::string a = canon("limit 5 match 'a/b' where x > 1");
  const std::string b = canon("where x > 1 limit 5 match 'a/b'");
  EXPECT_EQ(a, b);
}

TEST(QueryGrammar, CanonicalTextIsAFixedPoint) {
  for (const char* text : {
           "match 'm/**' where cycles.incl > 0.05*total limit 3",
           "where not (a > 1 and b < 2) or c == 3",
           "select count(*), sum(cycles.excl) order by \"IMBALANCE %\" asc",
           "where a - (b - c) > 0",
           "where -x + 2 * 3 > 1 / 4",
       }) {
    SCOPED_TRACE(text);
    const std::string once = canon(text);
    EXPECT_EQ(canon(once), once);  // re-parses to the same canonical form
  }
}

TEST(QueryGrammar, PrecedenceShapesTheTree) {
  // 1 + 2 * 3 > 6 and not x > 5  parses as  ((1 + (2*3)) > 6) and (not (x > 5))
  const auto e = parse_predicate("1 + 2 * 3 > 6 and not x > 5");
  ASSERT_EQ(e->op, ExprOp::kAnd);
  ASSERT_EQ(e->lhs->op, ExprOp::kGt);
  EXPECT_EQ(e->lhs->lhs->op, ExprOp::kAdd);
  EXPECT_EQ(e->lhs->lhs->rhs->op, ExprOp::kMul);
  ASSERT_EQ(e->rhs->op, ExprOp::kNot);
  EXPECT_EQ(e->rhs->lhs->op, ExprOp::kGt);
}

TEST(QueryGrammar, NumbersRoundTripShortest) {
  // 0.05 must not print as 0.050000000000000003.
  EXPECT_EQ(to_text(*parse_predicate("x > 0.05 * total")),
            "x > 0.05 * total");
  EXPECT_EQ(to_text(*parse_predicate("x > 1e9")), "x > 1000000000");
}

TEST(QueryGrammar, ErrorsCarryByteOffsets) {
  EXPECT_EQ(parse_offset("limit 1 limit 2"), 8u);   // duplicate clause
  EXPECT_EQ(parse_offset("match match"), 6u);       // pattern must be quoted
  EXPECT_EQ(parse_offset("where cycles.foo > 1"), 13u);  // bad .suffix
  EXPECT_EQ(parse_offset("limit x"), 6u);           // not an integer
  EXPECT_EQ(parse_offset("limit 0"), 6u);           // zero is not positive
  EXPECT_EQ(parse_offset("frobnicate"), 0u);        // unknown clause
  EXPECT_EQ(parse_offset("where (1 > 0"), 12u);     // unclosed paren (at end)
  EXPECT_EQ(parse_offset("where 'oops"), 6u);       // unterminated string
  EXPECT_EQ(parse_offset("where a @ b"), 8u);       // stray character
}

TEST(QueryGrammar, BuilderProducesTheSameAstAsText) {
  Query built = QueryBuilder()
                    .match("main/**/mpi_*")
                    .where("cycles.incl > 0.05*total")
                    .order_by("cycles.excl", /*descending=*/true)
                    .limit(20)
                    .build();
  const Query parsed = parse(
      "match 'main/**/mpi_*' where cycles.incl > 0.05*total "
      "order by cycles.excl desc limit 20");
  EXPECT_EQ(to_text(built), to_text(parsed));
}

TEST(QueryGrammar, BuilderWhereCallsAndTogether) {
  Query q = QueryBuilder().where("a > 1").where("b < 2").build();
  EXPECT_EQ(to_text(q), to_text(parse("where a > 1 and b < 2")));
}

TEST(QueryGrammar, BuilderAggregatesMatchTextForms) {
  Query q = QueryBuilder()
                .aggregate(SelectItem::Agg::kCount)
                .aggregate(SelectItem::Agg::kSum, "cycles.incl")
                .build();
  EXPECT_EQ(to_text(q), to_text(parse("select count(*), sum(cycles.incl)")));
  EXPECT_THROW(QueryBuilder().aggregate(SelectItem::Agg::kNone),
               InvalidArgument);
  EXPECT_THROW(QueryBuilder().aggregate(SelectItem::Agg::kSum),
               InvalidArgument);
}

TEST(QueryGrammar, ResolveMetricName) {
  EXPECT_EQ(resolve_metric_name("cycles.incl"), "cycles (I)");
  EXPECT_EQ(resolve_metric_name("cycles.excl"), "cycles (E)");
  EXPECT_EQ(resolve_metric_name("IMBALANCE %"), "IMBALANCE %");
}

// --- path patterns ----------------------------------------------------------

TEST(PathPatternTest, GlobMatch) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("mpi_*", "mpi_waitall"));
  EXPECT_FALSE(glob_match("mpi_*", "ompi_free"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));  // star backtracking
  EXPECT_TRUE(glob_match("a*b", "ab"));
  EXPECT_FALSE(glob_match("a*b", "ba"));
}

TEST(PathPatternTest, ParseRejectsEmptySegmentsWithOffset) {
  try {
    parse_pattern("a//b", /*offset=*/10);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 12u);  // the empty segment starts after "a/"
  }
  EXPECT_THROW(parse_pattern("/a"), ParseError);
  EXPECT_THROW(parse_pattern("a/"), ParseError);
}

TEST(PathPatternTest, ParseRejectsOversizedPatterns) {
  std::string big = "x";
  for (int i = 0; i < 63; ++i) big += "/x";  // 64 segments
  EXPECT_THROW(parse_pattern(big), ParseError);
  big = big.substr(2);  // 63 segments: the largest pattern that fits
  EXPECT_EQ(parse_pattern(big).segments.size(), 63u);
}

/// Run `chain` through a matcher; true when the whole chain matches.
bool chain_matches(const std::string& pattern,
                   const std::vector<std::string>& chain) {
  const PatternMatcher m(parse_pattern(pattern));
  PatternMatcher::StateSet s = m.initial();
  for (const std::string& name : chain) s = m.advance(s, name);
  return m.accepting(s);
}

TEST(PathPatternTest, MatcherExactChain) {
  EXPECT_TRUE(chain_matches("m/f/g", {"m", "f", "g"}));
  EXPECT_FALSE(chain_matches("m/f/g", {"m", "f"}));       // too short
  EXPECT_FALSE(chain_matches("m/f/g", {"m", "f", "h"}));  // wrong leaf
  EXPECT_FALSE(chain_matches("m/f/g", {"m", "f", "g", "h"}));  // too long
}

TEST(PathPatternTest, AnyDepthMatchesZeroOrMoreFrames) {
  EXPECT_TRUE(chain_matches("m/**/h", {"m", "h"}));  // ** absorbs nothing
  EXPECT_TRUE(chain_matches("m/**/h", {"m", "f", "g", "h"}));
  EXPECT_TRUE(chain_matches("**", {}));  // matches even the empty chain
  EXPECT_TRUE(chain_matches("**", {"a", "b"}));
  EXPECT_TRUE(chain_matches("**/h", {"h"}));
  EXPECT_FALSE(chain_matches("m/**/h", {"f", "g", "h"}));
}

TEST(PathPatternTest, RecursionNeedsDistinctFrames) {
  // 'a/**/a' wants two distinct frames named a on the chain.
  EXPECT_FALSE(chain_matches("a/**/a", {"a"}));
  EXPECT_TRUE(chain_matches("a/**/a", {"a", "a"}));
  EXPECT_TRUE(chain_matches("a/**/a", {"a", "b", "c", "a"}));
}

TEST(PathPatternTest, PruningSignal) {
  const PatternMatcher m(parse_pattern("m/f"));
  PatternMatcher::StateSet s = m.initial();
  EXPECT_TRUE(m.can_continue(s));
  s = m.advance(s, "zzz");  // first frame mismatches an anchored pattern
  EXPECT_FALSE(m.can_continue(s));
}

// --- compile + execute over a real CCT --------------------------------------

/// The paper's Fig. 2 example: frames m(10) -> f(7) -> g(6) -> g(5) -> h(4)
/// (inclusive cycles), plus loops/statements below and a second g under m.
struct PlanFixture {
  PlanFixture()
      : cct(prof::correlate(ex.profile(), ex.tree())),
        attr(metrics::attribute_metrics(cct, metrics::all_events())),
        incl(attr.cols.inclusive(Event::kCycles)),
        excl(attr.cols.exclusive(Event::kCycles)) {}

  QueryResult run(const std::string& text) const {
    return query::run(text, cct, attr.table);
  }
  Plan plan(const std::string& text) const {
    return compile(parse(text), cct, attr.table);
  }

  workloads::PaperExample ex;
  prof::CanonicalCct cct;
  metrics::Attribution attr;
  metrics::ColumnId incl, excl;
};

TEST(QueryPlan, TotalFoldsToTheRootRowValue) {
  PlanFixture f;
  // Root inclusive cycles is 10, so the bound is 5.
  const QueryResult r = f.run("where cycles.incl > 0.5*total");
  std::size_t expect = 0;
  for (const double v : f.attr.table.column(f.incl))
    if (v > 5.0) ++expect;
  ASSERT_GT(expect, 0u);
  EXPECT_EQ(r.rows.size(), expect);
  EXPECT_EQ(r.stats.rows_matched, expect);
  // Default select surfaces the predicate's metric, resolved.
  ASSERT_EQ(r.columns.size(), 1u);
  EXPECT_EQ(r.columns[0], f.attr.table.desc(f.incl).name);
  for (const ResultRow& row : r.rows) EXPECT_GT(row.values[0], 5.0);
}

TEST(QueryPlan, ExplainShowsTheFoldedBound) {
  PlanFixture f;
  const std::string text = f.plan("where cycles.incl > 0.5*total").explain();
  EXPECT_NE(text.find("bound 5"), std::string::npos) << text;
  // The echoed query keeps the pre-fold form the user wrote.
  EXPECT_NE(text.find("0.5 * total"), std::string::npos) << text;
}

TEST(QueryPlan, FastPathAndRowProgramAgree) {
  PlanFixture f;
  const Plan fast = f.plan("where cycles.incl > 3");
  const Plan slow = f.plan("where 0 + cycles.incl > 3");  // defeats the scan
  EXPECT_NE(fast.explain().find("columnar scan"), std::string::npos);
  EXPECT_NE(slow.explain().find("row program"), std::string::npos);
  const QueryResult a = fast.execute();
  const QueryResult b = slow.execute();
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    EXPECT_EQ(a.rows[i].node, b.rows[i].node);
  // The row program evaluated every row; the scan visited them columnar-ly.
  EXPECT_EQ(b.stats.rows_scanned, f.attr.table.num_rows());
  EXPECT_EQ(a.stats.rows_scanned, f.attr.table.num_rows());
}

TEST(QueryPlan, FlippedComparisonStillTakesTheFastPath) {
  PlanFixture f;
  const Plan flipped = f.plan("where 3 < cycles.incl");
  EXPECT_NE(flipped.explain().find("columnar scan"), std::string::npos);
  const QueryResult a = f.run("where cycles.incl > 3");
  const QueryResult b = flipped.execute();
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    EXPECT_EQ(a.rows[i].node, b.rows[i].node);
}

TEST(QueryPlan, UnknownColumnsFailWithAByteOffset) {
  PlanFixture f;
  try {
    f.run("where bogus_metric > 1");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus_metric"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
  EXPECT_THROW(f.run("order by nope desc"), InvalidArgument);
  EXPECT_THROW(f.run("select nope"), InvalidArgument);
}

TEST(QueryPlan, TotalNeedsAnAnchorMetric) {
  PlanFixture f;
  EXPECT_THROW(f.run("where 1 > 0.5*total"), InvalidArgument);
  // A metric elsewhere in the SAME comparison anchors it.
  EXPECT_NO_THROW(f.run("where total * 0.5 < cycles.incl"));
}

TEST(QueryPlan, MixingAggregatesAndColumnsIsRejected) {
  PlanFixture f;
  EXPECT_THROW(f.run("select count(*), cycles.incl"), InvalidArgument);
}

TEST(QueryPlan, MatchWalksFrameChains) {
  PlanFixture f;
  const QueryResult r = f.run("match 'm/f/g/g/h'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].label, "h");
  EXPECT_EQ(r.rows[0].path, "m/f/g/g/h");
  EXPECT_GT(r.stats.nodes_visited, 0u);
}

TEST(QueryPlan, AnyDepthFindsEveryRecursiveInstance) {
  PlanFixture f;
  // Frames named g whose chain holds ANOTHER g above them: exactly the
  // inner g (m/f/g/g), inclusive 5.
  const QueryResult r = f.run("match '**/g/**/g'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].path, "m/f/g/g");
  EXPECT_EQ(f.attr.table.get(f.incl, r.rows[0].node), 5.0);
}

TEST(QueryPlan, MatchAndWhereIntersect) {
  PlanFixture f;
  // All g frames...
  const QueryResult all_g = f.run("match '**/g'");
  // ...versus only those above half the total.
  const QueryResult big_g = f.run("match '**/g' where cycles.incl > 0.5*total");
  EXPECT_GT(all_g.rows.size(), big_g.rows.size());
  for (const ResultRow& row : big_g.rows) {
    EXPECT_EQ(row.label, "g");
    EXPECT_GT(f.attr.table.get(f.incl, row.node), 5.0);
  }
}

TEST(QueryPlan, OrderingIsDeterministicOnTies) {
  PlanFixture f;
  const QueryResult r = f.run("order by cycles.incl desc");
  ASSERT_GT(r.rows.size(), 2u);
  for (std::size_t i = 1; i < r.rows.size(); ++i) {
    const double prev = f.attr.table.get(f.incl, r.rows[i - 1].node);
    const double cur = f.attr.table.get(f.incl, r.rows[i].node);
    EXPECT_GE(prev, cur);  // descending keys...
    if (prev == cur)       // ...and ties break toward smaller node ids
      EXPECT_LT(r.rows[i - 1].node, r.rows[i].node);
  }
  // Same query, same data: byte-identical rows.
  const QueryResult again = f.run("order by cycles.incl desc");
  ASSERT_EQ(again.rows.size(), r.rows.size());
  for (std::size_t i = 0; i < r.rows.size(); ++i)
    EXPECT_EQ(again.rows[i].node, r.rows[i].node);
}

TEST(QueryPlan, LimitKeepsTheTop) {
  PlanFixture f;
  const QueryResult r = f.run("order by cycles.incl desc limit 3");
  ASSERT_EQ(r.rows.size(), 3u);
  // Root and m tie at 10; the root (node 0) wins the tie.
  EXPECT_EQ(r.rows[0].node, prof::kCctRoot);
  EXPECT_EQ(r.rows[0].values[0], 10.0);
  EXPECT_EQ(r.rows[1].label, "m");
  EXPECT_EQ(r.rows[1].values[0], 10.0);
  EXPECT_EQ(r.rows[2].values[0], 7.0);  // f
}

TEST(QueryPlan, AggregatesMatchManualLoops) {
  PlanFixture f;
  const QueryResult r =
      f.run("select count(*), sum(cycles.excl), mean(cycles.incl), "
            "min(cycles.incl), max(cycles.incl)");
  ASSERT_EQ(r.rows.size(), 1u);
  const std::size_t n = f.attr.table.num_rows();
  EXPECT_EQ(r.rows[0].values[0], static_cast<double>(n));
  EXPECT_DOUBLE_EQ(r.rows[0].values[1], f.attr.table.column_sum(f.excl));
  EXPECT_DOUBLE_EQ(r.rows[0].values[2],
                   f.attr.table.column_sum(f.incl) / static_cast<double>(n));
  const auto col = f.attr.table.column(f.incl);
  EXPECT_EQ(r.rows[0].values[3], *std::min_element(col.begin(), col.end()));
  EXPECT_EQ(r.rows[0].values[4], *std::max_element(col.begin(), col.end()));
  EXPECT_EQ(r.columns[0], "count(*)");
}

TEST(QueryPlan, AggregatesOverAnEmptyMatchAreZero) {
  PlanFixture f;
  const QueryResult r =
      f.run("where cycles.incl > 1e15 select count(*), sum(cycles.incl), "
            "min(cycles.incl)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0], 0.0);
  EXPECT_EQ(r.rows[0].values[1], 0.0);
  EXPECT_EQ(r.rows[0].values[2], 0.0);  // not +inf
  EXPECT_EQ(r.stats.rows_matched, 0u);
}

TEST(QueryPlan, ExplainListsEveryOperatorInOrder) {
  PlanFixture f;
  const std::string text =
      f.plan("match 'm/**' where cycles.incl > 2 "
             "order by cycles.incl desc limit 4")
          .explain();
  const char* expected[] = {"plan for:", "source:",   "match:",
                            "filter:",   "project:",  "order by:",
                            "limit: 4"};
  std::size_t at = 0;
  for (const char* part : expected) {
    const std::size_t found = text.find(part, at);
    ASSERT_NE(found, std::string::npos) << part << " missing in:\n" << text;
    at = found;
  }
}

TEST(QueryPlan, BuilderAndTextCompileToTheSameResult) {
  PlanFixture f;
  Query built = QueryBuilder()
                    .match("**/g")
                    .where("cycles.incl > 0.3*total")
                    .order_by("cycles.incl")
                    .build();
  const QueryResult a = compile(std::move(built), f.cct, f.attr.table).execute();
  const QueryResult b =
      f.run("match '**/g' where cycles.incl > 0.3*total "
            "order by cycles.incl desc");
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    EXPECT_EQ(a.rows[i].node, b.rows[i].node);
}

// --- match strategies and top-k against their references -------------------

bool frame_like(prof::CctKind k) {
  return k == prof::CctKind::kFrame || k == prof::CctKind::kInline;
}

/// The pruning DFS as the reference every pattern's candidates must match:
/// matches in node-id order, and how many nodes the walk visits.
std::pair<std::vector<prof::CctNodeId>, std::uint64_t> dfs_match(
    const prof::CanonicalCct& cct, const PathPattern& p) {
  const PatternMatcher m(p);
  std::vector<prof::CctNodeId> out;
  std::uint64_t visited = 0;
  std::vector<std::pair<prof::CctNodeId, PatternMatcher::StateSet>> stack{
      {prof::kCctRoot, m.initial()}};
  while (!stack.empty()) {
    auto [id, s] = stack.back();
    stack.pop_back();
    ++visited;
    const prof::CctNode& n = cct.node(id);
    if (frame_like(n.kind)) {
      s = m.advance(s, cct.tree().name_of(n.scope));
      if (m.accepting(s)) out.push_back(id);
      if (!m.can_continue(s)) continue;
    }
    for (const prof::CctNodeId c : n.children) stack.emplace_back(c, s);
  }
  std::sort(out.begin(), out.end());
  return {out, visited};
}

/// The unanchored pass over every node, as it ran before the CCT kept a
/// frame list: state[id] = advance(state[parent], name) for frame-like
/// nodes, the parent's state unchanged for the rest.
std::vector<prof::CctNodeId> all_node_match(const prof::CanonicalCct& cct,
                                            const PathPattern& p) {
  const PatternMatcher m(p);
  std::vector<prof::CctNodeId> out;
  std::vector<PatternMatcher::StateSet> state(cct.size());
  for (prof::CctNodeId id = 0; id < cct.size(); ++id) {
    const prof::CctNode& n = cct.node(id);
    PatternMatcher::StateSet s =
        id == prof::kCctRoot ? m.initial() : state[n.parent];
    if (frame_like(n.kind)) {
      s = m.advance(s, cct.tree().name_of(n.scope));
      if (m.accepting(s)) out.push_back(id);
    }
    state[id] = s;
  }
  return out;
}

/// A random program's CCT with every event attributed and a derived
/// column that is NaN on part of the rows.
struct RandomPlanFixture {
  explicit RandomPlanFixture(std::uint64_t seed)
      : w(workloads::make_random_program({.seed = seed, .num_procs = 10})),
        cct(prof::correlate(
            sim::ExecutionEngine(*w.program, *w.lowering, w.run).run(),
            *w.tree)),
        attr(metrics::attribute_metrics(cct, metrics::all_events())) {
    nan_col = metrics::add_derived_metric(
        attr.table, "nan",
        "sqrt($" + std::to_string(attr.cols.exclusive(Event::kCycles)) +
            " - 0.25 * $" +
            std::to_string(attr.cols.inclusive(Event::kCycles)) + ")");
  }
  workloads::Workload w;
  prof::CanonicalCct cct;
  metrics::Attribution attr;
  metrics::ColumnId nan_col = 0;
};

std::string repeat(const std::string& part, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += part;
  return out;
}

/// Anchored and unanchored patterns over a CCT's own frame names,
/// including a recursive '**/g/**/g' when some frame repeats on a path.
std::vector<std::string> patterns_for(const prof::CanonicalCct& cct) {
  const auto name = [&](prof::CctNodeId id) {
    return cct.tree().name_of(cct.node(id).scope);
  };
  const std::string main = name(cct.node(prof::kCctRoot).children.front());
  std::string some, recursive;
  for (prof::CctNodeId id = 1; id < cct.size() && recursive.empty(); ++id) {
    if (!frame_like(cct.node(id).kind)) continue;
    if (some.empty() && name(id) != main) some = name(id);
    for (prof::CctNodeId up = cct.node(id).parent; up != prof::kCctRoot;
         up = cct.node(up).parent)
      if (frame_like(cct.node(up).kind) && name(up) == name(id))
        recursive = name(id);
  }
  if (recursive.empty()) recursive = some;
  return {"**",
          "**/" + some.substr(0, 1) + "*",
          "**/" + recursive + "/**/" + recursive,
          "**/" + some + "/*",
          "**/**/" + some,
          main + "/*",
          main + "/**/" + recursive,
          "*/**",
          // Long unanchored patterns, of 7 and 8 segments and up to 37.
          "**/*/**/*/**/*/" + some,
          "**/*/**/*/**/*/**/" + some,
          "**/*/**/*/**/*/**/*/**/" + some,
          "**/" + repeat("**/*/", 8) + some,
          "**/" + repeat("**/*/", 17) + some};
}

std::vector<prof::CctNodeId> nodes_of(const QueryResult& r) {
  std::vector<prof::CctNodeId> ids;
  for (const ResultRow& row : r.rows) ids.push_back(row.node);
  return ids;
}

TEST(QueryStrategies, IdOrderPassMatchesTheDfs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 6u}) {
    const RandomPlanFixture f(seed);
    for (const std::string& pattern : patterns_for(f.cct)) {
      const PathPattern p = parse_pattern(pattern);
      const auto [want, visited] = dfs_match(f.cct, p);
      const Plan plan =
          compile(parse("match '" + pattern + "'"), f.cct, f.attr.table);
      const QueryResult got = plan.execute();
      EXPECT_EQ(nodes_of(got), want) << pattern;
      EXPECT_EQ(got.stats.nodes_visited, visited) << pattern;
      if (p.unanchored()) {
        EXPECT_EQ(visited, f.cct.size()) << pattern;
      }
      // explain() names the strategy that actually runs.
      EXPECT_NE(plan.explain().find(p.unanchored() ? "nfa id-order pass"
                                                   : "nfa dfs"),
                std::string::npos)
          << plan.explain();
    }
  }
}

TEST(QueryStrategies, FramePassMatchesAllNodePass) {
  std::size_t inline_frames = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 6u}) {
    const RandomPlanFixture f(seed);
    for (const prof::CctNodeId id : f.cct.frames())
      inline_frames += f.cct.node(id).kind == prof::CctKind::kInline;
    const std::span<const double> excl =
        f.attr.table.column(f.attr.cols.exclusive(Event::kCycles));
    for (const std::string& pattern : patterns_for(f.cct)) {
      const PathPattern p = parse_pattern(pattern);
      if (!p.unanchored()) continue;  // anchored ones walk the DFS
      const std::vector<prof::CctNodeId> all = all_node_match(f.cct, p);
      const auto expect = [&](const std::string& text,
                              const std::vector<prof::CctNodeId>& rows,
                              std::uint64_t scanned) {
        const QueryResult got = query::run(text, f.cct, f.attr.table);
        EXPECT_EQ(nodes_of(got), rows) << text;
        EXPECT_EQ(got.stats.nodes_visited, f.cct.size()) << text;
        EXPECT_EQ(got.stats.rows_scanned, scanned) << text;
        EXPECT_EQ(got.stats.rows_matched,
                  scanned > 0 ? rows.size() : all.size())
            << text;
      };
      const std::string match = "match '" + pattern + "'";
      expect(match, all, 0);
      std::vector<prof::CctNodeId> busy;
      for (const prof::CctNodeId id : all)
        if (excl[id] > 0) busy.push_back(id);
      expect(match + " where cycles.excl > 0", busy, all.size());
      std::vector<prof::CctNodeId> top = all;
      std::stable_sort(top.begin(), top.end(), [&](auto a, auto b) {
        return metrics::sorts_before(excl[a], excl[b], true);
      });
      if (top.size() > 20) top.resize(20);
      expect(match + " order by cycles.excl desc limit 20", top, 0);
    }
  }
  EXPECT_GT(inline_frames, 0u);  // the list holds inline frames too
}

TEST(QueryStrategies, TopKEqualsFullStableSortThenTruncate) {
  for (const std::uint64_t seed : {1u, 5u}) {
    const RandomPlanFixture f(seed);
    const std::pair<const char*, metrics::ColumnId> keys[] = {
        {"cycles (E)", f.attr.cols.exclusive(Event::kCycles)},  // many ties
        {"cycles (I)", f.attr.cols.inclusive(Event::kCycles)},
        {"nan", f.nan_col}};
    for (const std::string match : {"", "match '**/**' "}) {
      // Unordered, the rows come back in node-id order.
      const std::vector<prof::CctNodeId> ids =
          nodes_of(query::run(match, f.cct, f.attr.table));
      for (const auto& [name, col_id] : keys) {
        const std::span<const double> col = f.attr.table.column(col_id);
        for (const bool desc : {true, false}) {
          std::vector<prof::CctNodeId> full = ids;
          std::stable_sort(full.begin(), full.end(), [&](auto a, auto b) {
            return metrics::sorts_before(col[a], col[b], desc);
          });
          for (const std::size_t limit :
               {std::size_t{0}, std::size_t{1}, std::size_t{20}, ids.size(),
                ids.size() + 5}) {
            std::string text = match + "order by \"" + name + "\" " +
                               (desc ? "desc" : "asc");
            if (limit > 0) text += " limit " + std::to_string(limit);
            const std::vector<prof::CctNodeId> got =
                nodes_of(query::run(text, f.cct, f.attr.table));
            std::vector<prof::CctNodeId> want = full;
            if (limit > 0 && want.size() > limit) want.resize(limit);
            ASSERT_EQ(got, want) << text;
            // NaN keys trail every number, in both directions.
            for (std::size_t i = 1; i < got.size(); ++i)
              ASSERT_FALSE(std::isnan(col[got[i - 1]]) &&
                           !std::isnan(col[got[i]]))
                  << text;
          }
        }
      }
    }
  }
}

TEST(QueryStrategies, AnchoredPatternStillPrunes) {
  const RandomPlanFixture f(2);
  const std::string main = f.cct.tree().name_of(
      f.cct.node(f.cct.node(prof::kCctRoot).children.front()).scope);
  const QueryResult r = query::run("match '" + main + "/*'", f.cct,
                                   f.attr.table);
  EXPECT_FALSE(r.rows.empty());
  EXPECT_LT(r.stats.nodes_visited, f.cct.size() / 2);
}

}  // namespace
}  // namespace pathview::query
