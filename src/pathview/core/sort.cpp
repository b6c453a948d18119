#include "pathview/core/sort.hpp"

#include <algorithm>

#include "pathview/support/error.hpp"

namespace pathview::core {

void sort_level(std::vector<ViewNodeId>& ids, std::span<const double> col,
                bool descending) {
  // One contiguous column read per comparison instead of a row-wise get().
  std::stable_sort(ids.begin(), ids.end(), [&](ViewNodeId a, ViewNodeId b) {
    return metrics::sorts_before(col[a], col[b], descending);
  });
}

void sort_children_by(View& view, ViewNodeId parent, metrics::ColumnId metric,
                      bool descending) {
  if (metric >= view.table().num_columns())
    throw InvalidArgument("sort_children_by: bad metric column");
  sort_level(view.mutable_children(parent), view.table().column(metric),
             descending);
}

void sort_built_by(View& view, metrics::ColumnId metric, bool descending) {
  for (ViewNodeId id = 0; id < view.size(); ++id)
    if (view.node(id).children_built && !view.node(id).children.empty())
      sort_children_by(view, id, metric, descending);
}

void sort_children_by_label(View& view, ViewNodeId parent, bool ascending) {
  auto& ch = view.mutable_children(parent);
  std::stable_sort(ch.begin(), ch.end(), [&](ViewNodeId a, ViewNodeId b) {
    const std::string la = view.label(a);
    const std::string lb = view.label(b);
    return ascending ? la < lb : la > lb;
  });
}

}  // namespace pathview::core
