// Metric-column sorting (paper Sec. V-A): "Scopes at each level of the
// nesting in the navigation pane are sorted according to the selected
// metric column" — including derived metric columns, the paper's key
// productivity feature. Sorting by the source scopes themselves is also
// supported ("this capability arose from design orthogonality").
//
// Views sort lazily: View::sort_by() records a key and View::children_of()
// applies it to a level when the level is read (see view.hpp). The eager
// functions below reorder built levels in place, bypassing the view's sort
// history; sort_built_by() is the reference the lazy order is tested
// against. Metric sorts are stable and order NaN last in both directions
// (metrics::sorts_before), so sorting a sorted level again is a no-op.
#pragma once

#include <span>

#include "pathview/core/view.hpp"

namespace pathview::core {

/// Stable-sort `ids` by their values in `col` (NaN last).
void sort_level(std::vector<ViewNodeId>& ids, std::span<const double> col,
                bool descending);

/// Sort `parent`'s (already built) children by a metric column.
void sort_children_by(View& view, ViewNodeId parent, metrics::ColumnId metric,
                      bool descending = true);

/// Sort every built node's children by a metric column, now.
void sort_built_by(View& view, metrics::ColumnId metric,
                   bool descending = true);

/// Sort `parent`'s children alphabetically by label.
void sort_children_by_label(View& view, ViewNodeId parent,
                            bool ascending = true);

}  // namespace pathview::core
