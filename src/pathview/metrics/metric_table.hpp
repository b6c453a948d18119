// The metric table: a column store of per-scope metric values.
//
// hpcviewer's metric pane is a table whose rows are scopes (of whatever view
// is displayed) and whose columns are metrics — measured (raw), summary
// statistics, or user-defined derived metrics. Rows are addressed by view
// node id; tables grow row-wise as lazily-constructed views materialize
// nodes.
//
// Storage is columnar (SoA): each column is one contiguous buffer of
// doubles, so a predicate scan or a sort-key read touches exactly one
// column's memory instead of striding across rows. Column names are interned
// in a StringTable (NameId) so lookups compare one integer and repeated
// names across tables share storage. Bulk primitives (add_rows, scan,
// gather) are the substrate for pathview::query's plan operators.
//
// A column is a shared_ptr handle to a ColumnBuffer. A buffer is either
// filled, or holds a ColumnGenerator that fills a whole block of columns
// exactly once, on the first read of any of them (the paper's rule of
// building nothing until it is shown, applied to metric columns). Copying a
// table copies handles, not values. Only the table that created a filled
// column may write it, and only while no other table shares it: column_mut,
// set, add and growing the row count throw InvalidArgument on a shared or
// generated column. There is no copy-on-write.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

/// Fills a block of columns exactly once, on the first read of any of them.
/// Concurrent first readers wait for that one fill; later reads cost no
/// lock. If the fill throws, the next read tries again.
class ColumnGenerator {
 public:
  /// Returns the block's columns, each num_rows() values long.
  using Fill = std::function<std::vector<std::vector<double>>()>;
  explicit ColumnGenerator(Fill fill) : fill_(std::move(fill)) {}

  /// Column `slot` of the block, generating the block first if need be.
  std::span<const double> column(std::size_t slot);
  bool generated() const { return done_.load(std::memory_order_acquire); }

 private:
  std::once_flag once_;
  std::atomic<bool> done_{false};
  Fill fill_;  // released once it has run
  std::vector<std::vector<double>> values_;
};

/// The immutable values of one column: a filled vector, or one slot of a
/// generator's block.
class ColumnBuffer {
 public:
  explicit ColumnBuffer(std::vector<double> values)
      : values_(std::move(values)) {}
  ColumnBuffer(std::shared_ptr<ColumnGenerator> gen, std::size_t slot)
      : gen_(std::move(gen)), slot_(slot) {}

  /// The values; runs the generator on the first read.
  std::span<const double> values() const {
    return gen_ ? gen_->column(slot_) : std::span<const double>(values_);
  }
  bool generated() const { return !gen_ || gen_->generated(); }

 private:
  friend class MetricTable;  // writes the columns it created
  std::vector<double> values_;
  std::shared_ptr<ColumnGenerator> gen_;
  std::size_t slot_ = 0;
};

class MetricTable {
 public:
  ColumnId add_column(MetricDesc desc);
  /// Add a column that takes over a ready buffer of exactly num_rows()
  /// values (no zero fill); throws InvalidArgument on a size mismatch.
  ColumnId add_column(MetricDesc desc, std::vector<double> values);
  /// Add column `slot` of `gen`'s block; it is generated on first read and
  /// never writable.
  ColumnId add_column(MetricDesc desc, std::shared_ptr<ColumnGenerator> gen,
                      std::size_t slot);
  /// Add column `c` of `src` (same row count) sharing its buffer.
  ColumnId add_column(const MetricTable& src, ColumnId c);

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

  /// A read of a filled column is one pointer load; the first read of a
  /// generated column runs its generator.
  double get(ColumnId c, std::size_t row) const { return data(c)[row]; }
  void set(ColumnId c, std::size_t row, double v) { writable(c)[row] = v; }
  void add(ColumnId c, std::size_t row, double v) { writable(c)[row] += v; }

  std::span<const double> column(ColumnId c) const {
    return {data(c), nrows_};
  }
  std::span<double> column_mut(ColumnId c) { return {writable(c), nrows_}; }

  /// True when this table created column c as a filled column and no other
  /// table shares it — the only columns set/add/column_mut accept.
  bool is_writable(ColumnId c) const {
    return cols_[c].owned && cols_[c].buf.use_count() == 1;
  }
  /// The buffer behind column c (e.g. to ask whether it is generated yet).
  const ColumnBuffer& buffer(ColumnId c) const { return *cols_[c].buf; }

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
    const double* v = data(c);
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
    NameId name = 0;  // desc.name interned in names_
    std::shared_ptr<ColumnBuffer> buf;
    bool owned = false;  // created here as a filled column; copies share
    // buf's values once known; null until a generated column is first read.
    mutable std::atomic<const double*> values{nullptr};

    Column() = default;
    Column(const Column& o)
        : desc(o.desc), name(o.name), buf(o.buf),
          values(o.values.load(std::memory_order_acquire)) {}
    Column(Column&& o) noexcept
        : desc(std::move(o.desc)), name(o.name), buf(std::move(o.buf)),
          owned(o.owned), values(o.values.load(std::memory_order_relaxed)) {}
    Column& operator=(const Column& o) {
      if (this != &o) *this = Column(o);
      return *this;
    }
    Column& operator=(Column&& o) noexcept {
      desc = std::move(o.desc);
      name = o.name;
      buf = std::move(o.buf);
      owned = o.owned;
      values.store(o.values.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      return *this;
    }
  };

  ColumnId push(MetricDesc desc, std::shared_ptr<ColumnBuffer> buf,
                bool owned);
  const double* data(ColumnId c) const {
    const double* p = cols_[c].values.load(std::memory_order_acquire);
    if (p != nullptr) [[likely]]
      return p;
    return first_read(c);
  }
  const double* first_read(ColumnId c) const;
  double* writable(ColumnId c) {
    if (!is_writable(c)) [[unlikely]]
      throw_shared(c);
    return cols_[c].buf->values_.data();
  }
  [[noreturn]] void throw_shared(ColumnId c) const;

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
