// The metric table: a column store of per-scope metric values.
//
// hpcviewer's metric pane is a table whose rows are scopes (of whatever view
// is displayed) and whose columns are metrics — measured (raw), summary
// statistics, or user-defined derived metrics. Rows are addressed by view
// node id; tables grow row-wise as lazily-constructed views materialize
// nodes.
//
// Storage is columnar (SoA): each column owns one contiguous buffer of
// doubles, so a predicate scan or a sort-key read touches exactly one
// column's memory instead of striding across rows. Column names are interned
// in a StringTable (NameId) so lookups compare one integer and repeated
// names across tables share storage. Bulk primitives (add_rows, scan,
// gather) are the substrate for pathview::query's plan operators.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pathview/model/program.hpp"
#include "pathview/support/string_table.hpp"

namespace pathview::metrics {

enum class MetricKind : std::uint8_t {
  kRaw,      // measured: samples x period of a hardware event
  kDerived,  // computed from other columns by a user formula
  kSummary,  // cross-rank statistic (mean/min/max/stddev)
};

struct MetricDesc {
  std::string name;
  MetricKind kind = MetricKind::kRaw;
  model::Event event = model::Event::kCycles;  // for kRaw
  bool inclusive = true;  // inclusive vs exclusive flavor (paper Sec. IV-A)
  std::string formula;    // for kDerived: the spreadsheet formula
};

using ColumnId = std::uint32_t;
using RowId = std::uint32_t;
using pathview::NameId;

class MetricTable {
 public:
  ColumnId add_column(MetricDesc desc);
  /// Add a column that takes over a ready buffer of exactly num_rows()
  /// values (no zero fill); throws InvalidArgument on a size mismatch.
  ColumnId add_column(MetricDesc desc, std::vector<double> values);

  std::size_t num_columns() const { return cols_.size(); }
  std::size_t num_rows() const { return nrows_; }

  /// Grow every column to at least `n` rows (new cells zero).
  void ensure_rows(std::size_t n);

  /// Append `n` zero-filled rows to every column; returns the id of the
  /// first new row.
  RowId add_rows(std::size_t n);

  const MetricDesc& desc(ColumnId c) const { return cols_[c].desc; }

  /// The interned id of column c's name (stable for the table's lifetime;
  /// two columns with equal names share one id).
  NameId name_id(ColumnId c) const { return cols_[c].name; }

  double get(ColumnId c, std::size_t row) const {
    return cols_[c].values[row];
  }
  void set(ColumnId c, std::size_t row, double v) { cols_[c].values[row] = v; }
  void add(ColumnId c, std::size_t row, double v) {
    cols_[c].values[row] += v;
  }

  std::span<const double> column(ColumnId c) const { return cols_[c].values; }
  std::span<double> column_mut(ColumnId c) { return cols_[c].values; }

  /// Column sum (used as the percentage denominator fallback).
  double column_sum(ColumnId c) const;

  /// Find a column by name; nullopt when absent. When several columns share
  /// a name, the first added wins (matching the historical scan order).
  std::optional<ColumnId> find(std::string_view name) const;

  /// Visit every row of column c whose value satisfies `pred(v)`, in row
  /// order, as `fn(RowId, double)`. Returns the number of rows visited.
  /// The loop runs over the column's contiguous buffer — this is the
  /// columnar fast path pathview::query compiles predicate filters onto.
  template <class Pred, class Fn>
  std::size_t scan(ColumnId c, Pred&& pred, Fn&& fn) const {
    const double* v = cols_[c].values.data();
    const std::size_t n = nrows_;
    std::size_t matched = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (pred(v[i])) {
        fn(static_cast<RowId>(i), v[i]);
        ++matched;
      }
    }
    return matched;
  }

  /// Copy column c's values at `rows` into `out` (parallel arrays;
  /// out.size() must equal rows.size()).
  void gather(ColumnId c, std::span<const RowId> rows,
              std::span<double> out) const;

  /// Degraded-data marker: the values in this table were computed from an
  /// incomplete measurement (see prof::CanonicalCct::degraded). Attribution
  /// copies the flag from the CCT; UIs render it as a banner so a partial
  /// profile is never presented as a complete one.
  bool degraded() const { return degraded_; }
  void set_degraded(bool d) { degraded_ = d; }

 private:
  struct Column {
    MetricDesc desc;
    NameId name = 0;              // desc.name interned in names_
    std::vector<double> values;   // contiguous per-column buffer
  };

  std::vector<Column> cols_;
  StringTable names_;
  // First column carrying each interned name (later duplicates not indexed).
  std::unordered_map<NameId, ColumnId> by_name_;
  std::size_t nrows_ = 0;
  bool degraded_ = false;
};

/// The order of every metric sort — view levels (core/sort.hpp) and a
/// query's `order by`: by value, NaN last in both directions. Unlike a bare
/// `a > b` this stays a strict weak order when a derived column holds NaN,
/// so sorting an already sorted level again leaves it as it is.
inline bool sorts_before(double a, double b, bool descending) {
  if (std::isnan(a)) return false;
  if (std::isnan(b)) return true;
  return descending ? a > b : a < b;
}

}  // namespace pathview::metrics
