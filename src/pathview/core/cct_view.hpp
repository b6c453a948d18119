// The Calling Context View (paper Sec. III-A): a top-down presentation of
// the canonical CCT itself. View node ids coincide with CCT node ids.
#pragma once

#include "pathview/core/view.hpp"

namespace pathview::core {

class CctView final : public View {
 public:
  /// `attr` must have been computed over `cct`; the view's table shares
  /// its columns (same column order/ids, no copy).
  CctView(const prof::CanonicalCct& cct, const metrics::Attribution& attr);

  /// The underlying CCT node of a view node (identity mapping).
  prof::CctNodeId cct_node(ViewNodeId id) const { return id; }
};

}  // namespace pathview::core
