#include "pathview/metrics/metric_table.hpp"

#include <numeric>

#include "pathview/support/error.hpp"

namespace pathview::metrics {

ColumnId MetricTable::add_column(MetricDesc desc) {
  return add_column(std::move(desc), std::vector<double>(nrows_, 0.0));
}

ColumnId MetricTable::add_column(MetricDesc desc, std::vector<double> values) {
  if (values.size() != nrows_)
    throw InvalidArgument("MetricTable::add_column: " +
                          std::to_string(values.size()) + " values for " +
                          std::to_string(nrows_) + " rows");
  const auto id = static_cast<ColumnId>(cols_.size());
  Column col;
  col.name = names_.intern(desc.name);
  col.desc = std::move(desc);
  col.values = std::move(values);
  by_name_.try_emplace(col.name, id);  // first column with this name wins
  cols_.push_back(std::move(col));
  return id;
}

void MetricTable::ensure_rows(std::size_t n) {
  if (n <= nrows_) return;
  nrows_ = n;
  for (auto& col : cols_) col.values.resize(n, 0.0);
}

RowId MetricTable::add_rows(std::size_t n) {
  const auto first = static_cast<RowId>(nrows_);
  ensure_rows(nrows_ + n);
  return first;
}

double MetricTable::column_sum(ColumnId c) const {
  const auto& col = cols_[c].values;
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
  const double* v = cols_[c].values.data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= nrows_)
      throw InvalidArgument("MetricTable::gather: row out of range");
    out[i] = v[rows[i]];
  }
}

}  // namespace pathview::metrics
