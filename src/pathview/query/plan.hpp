// Compiling and executing queries against a concrete CCT + MetricTable.
//
// compile() resolves every metric reference to a ColumnId and the
// predicate's references to their columns' values, folds `total`
// into a constant (the root-row value of the comparison's anchor metric),
// flattens the predicate tree into a postfix program, and picks an
// execution strategy:
//
//   match      PatternMatcher state sets carried down the CCT (skipped
//              when the pattern is empty — every row is a candidate). An
//              anchored pattern walks a DFS that prunes subtrees whose
//              state set goes empty; an unanchored one (leading '**') can
//              prune nothing and takes one id-order pass over the CCT's
//              frame list instead (a '**'-only pattern is the list);
//   filter     either MetricTable::scan over one contiguous column (the
//              columnar fast path, taken when there is no pattern and the
//              predicate is a single comparison of one metric against a
//              constant-folded bound) or per-candidate program evaluation;
//   aggregate/ project the select list over the surviving rows;
//   sort       by the order-by column, NaN last in both directions (ties
//              break toward smaller node ids, so results are
//              deterministic); with a limit only the top N are selected
//              (partial sort), which yields the same rows as a full sort;
//   limit      keep the first N rows.
//
// explain() prints exactly this plan, one operator per line, in execution
// order (source first, limit last), with metric references resolved and
// `total` folded; the match line names the strategy that runs. Execution is
// read-only over the table and deterministic: the same query on the same
// data yields byte-identical results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pathview/metrics/metric_table.hpp"
#include "pathview/prof/cct.hpp"
#include "pathview/query/pattern.hpp"
#include "pathview/query/query.hpp"

namespace pathview::query {

struct QueryStats {
  std::uint64_t nodes_visited = 0;  // CCT nodes walked by the matcher
                                    // (counted as every node when
                                    // unanchored)
  std::uint64_t rows_scanned = 0;   // rows the filter evaluated
  std::uint64_t rows_matched = 0;   // rows surviving match + filter
};

struct ResultRow {
  prof::CctNodeId node = 0;  // 0 for aggregate rows
  std::string path;   // frame chain root→node, '/'-joined ('' for the root)
  std::string label;  // the node's own display label
  std::vector<double> values;  // parallel to QueryResult::columns
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<ResultRow> rows;
  QueryStats stats;
};

/// A compiled query. Borrows the CCT and table — both must outlive the
/// plan. Movable; execution is const (many threads may execute one plan).
class Plan {
 public:
  /// The operator pipeline, one line each, in execution order (see file
  /// comment). Deterministic text — serve's `explain` op returns this.
  std::string explain() const;

  QueryResult execute() const;

  const Query& query() const { return q_; }

  /// Canonical text of the query as compiled, BEFORE `total` was folded —
  /// the round-trippable echo the serve ops and pvquery print.
  const std::string& text() const { return text_; }

  /// One postfix instruction of the compiled predicate (public so the
  /// file-local compiler/evaluator helpers can name it).
  struct Instr {
    ExprOp op = ExprOp::kNumber;
    double imm = 0.0;           // kNumber / folded kTotal
    metrics::ColumnId col = 0;  // kMetric
    const double* values = nullptr;  // kMetric: column `col`'s values
  };

 private:
  friend Plan compile(Query q, const prof::CanonicalCct& cct,
                      const metrics::MetricTable& table);

  std::vector<prof::CctNodeId> match_candidates(QueryStats& stats) const;
  /// Order node-id-ascending `rows` by the order-by column (top `limit`).
  void order_rows(std::vector<metrics::RowId>& rows) const;
  double eval(std::size_t row) const;

  Query q_;
  std::string text_;
  const prof::CanonicalCct* cct_ = nullptr;
  const metrics::MetricTable* table_ = nullptr;

  PathPattern pattern_;
  std::vector<Instr> program_;  // empty = no predicate
  std::string predicate_text_;  // resolved rendering for explain()

  // Columnar fast path: `column_ cmp bound_` with no pattern.
  bool simple_scan_ = false;
  ExprOp scan_cmp_ = ExprOp::kGt;
  metrics::ColumnId scan_col_ = 0;
  double scan_bound_ = 0.0;

  std::vector<SelectItem> select_;            // defaulted when q_.select empty
  std::vector<metrics::ColumnId> out_cols_;   // per non-agg select item
  bool aggregate_ = false;
  std::optional<metrics::ColumnId> order_col_;
};

/// Resolve + plan `q` against a CCT and its metric table (rows must be CCT
/// node ids, as in metrics::Attribution). Throws InvalidArgument for
/// unknown metric columns and ParseError for bad patterns.
Plan compile(Query q, const prof::CanonicalCct& cct,
             const metrics::MetricTable& table);

/// parse + compile + execute in one call (the pvquery/pvserve entry point).
QueryResult run(std::string_view text, const prof::CanonicalCct& cct,
                const metrics::MetricTable& table);

}  // namespace pathview::query
