#include "pathview/metrics/metric_table.hpp"

#include <numeric>

#include "pathview/support/error.hpp"

namespace pathview::metrics {

std::span<const double> ColumnGenerator::column(std::size_t slot) {
  std::call_once(once_, [this] {
    values_ = fill_();
    fill_ = nullptr;
    done_.store(true, std::memory_order_release);
  });
  if (slot >= values_.size())
    throw InvalidArgument("ColumnGenerator: slot " + std::to_string(slot) +
                          " of a " + std::to_string(values_.size()) +
                          "-column block");
  return values_[slot];
}

ColumnId MetricTable::add_column(MetricDesc desc) {
  return add_column(std::move(desc), std::vector<double>(nrows_, 0.0));
}

ColumnId MetricTable::add_column(MetricDesc desc, std::vector<double> values) {
  if (values.size() != nrows_)
    throw InvalidArgument("MetricTable::add_column: " +
                          std::to_string(values.size()) + " values for " +
                          std::to_string(nrows_) + " rows");
  return push(std::move(desc),
              std::make_shared<ColumnBuffer>(std::move(values)), true);
}

ColumnId MetricTable::add_column(MetricDesc desc,
                                 std::shared_ptr<ColumnGenerator> gen,
                                 std::size_t slot) {
  return push(std::move(desc),
              std::make_shared<ColumnBuffer>(std::move(gen), slot), false);
}

ColumnId MetricTable::add_column(const MetricTable& src, ColumnId c) {
  if (src.nrows_ != nrows_)
    throw InvalidArgument("MetricTable::add_column: a shared column of " +
                          std::to_string(src.nrows_) + " rows for " +
                          std::to_string(nrows_) + " rows");
  const ColumnId id = push(src.cols_[c].desc, src.cols_[c].buf, false);
  cols_[id].values.store(src.cols_[c].values.load(std::memory_order_acquire),
                         std::memory_order_relaxed);
  return id;
}

ColumnId MetricTable::push(MetricDesc desc, std::shared_ptr<ColumnBuffer> buf,
                           bool owned) {
  const auto id = static_cast<ColumnId>(cols_.size());
  Column col;
  col.name = names_.intern(desc.name);
  col.desc = std::move(desc);
  col.owned = owned;
  if (owned) col.values.store(buf->values_.data(), std::memory_order_relaxed);
  col.buf = std::move(buf);
  by_name_.try_emplace(col.name, id);  // first column with this name wins
  cols_.push_back(std::move(col));
  return id;
}

const double* MetricTable::first_read(ColumnId c) const {
  const Column& col = cols_[c];
  const std::span<const double> v = col.buf->values();
  if (v.size() != nrows_)
    throw InvalidArgument("MetricTable: column '" + col.desc.name + "' has " +
                          std::to_string(v.size()) + " values for " +
                          std::to_string(nrows_) + " rows");
  col.values.store(v.data(), std::memory_order_release);
  return v.data();
}

void MetricTable::throw_shared(ColumnId c) const {
  throw InvalidArgument("MetricTable: column '" + cols_[c].desc.name +
                        "' is shared or generated, so it is immutable");
}

void MetricTable::ensure_rows(std::size_t n) {
  if (n <= nrows_) return;
  for (ColumnId c = 0; c < cols_.size(); ++c)
    if (!is_writable(c)) throw_shared(c);
  nrows_ = n;
  for (Column& col : cols_) {
    col.buf->values_.resize(n, 0.0);
    col.values.store(col.buf->values_.data(), std::memory_order_relaxed);
  }
}

RowId MetricTable::add_rows(std::size_t n) {
  const auto first = static_cast<RowId>(nrows_);
  ensure_rows(nrows_ + n);
  return first;
}

double MetricTable::column_sum(ColumnId c) const {
  const std::span<const double> col = column(c);
  return std::accumulate(col.begin(), col.end(), 0.0);
}

std::optional<ColumnId> MetricTable::find(std::string_view name) const {
  const auto id = names_.lookup(name);
  if (!id) return std::nullopt;
  const auto it = by_name_.find(*id);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

void MetricTable::gather(ColumnId c, std::span<const RowId> rows,
                         std::span<double> out) const {
  if (rows.size() != out.size())
    throw InvalidArgument("MetricTable::gather: rows/out size mismatch");
  const double* v = data(c);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= nrows_)
      throw InvalidArgument("MetricTable::gather: row out of range");
    out[i] = v[rows[i]];
  }
}

}  // namespace pathview::metrics
