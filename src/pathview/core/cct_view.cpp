#include "pathview/core/cct_view.hpp"

#include "pathview/obs/obs.hpp"

namespace pathview::core {

namespace {

NodeRole role_of(prof::CctKind k) {
  switch (k) {
    case prof::CctKind::kRoot:
      return NodeRole::kRoot;
    case prof::CctKind::kFrame:
      return NodeRole::kFrame;
    case prof::CctKind::kLoop:
      return NodeRole::kLoop;
    case prof::CctKind::kInline:
      return NodeRole::kInline;
    case prof::CctKind::kStmt:
      return NodeRole::kStmt;
  }
  return NodeRole::kRoot;
}

}  // namespace

CctView::CctView(const prof::CanonicalCct& cct,
                 const metrics::Attribution& attr)
    : View(ViewType::kCallingContext, cct) {
  PV_SPAN("core.cct_view.build");
  // Mirror the CCT node-for-node; ids are preserved because CCT children
  // always have larger ids than their parents.
  for (prof::CctNodeId i = 0; i < cct.size(); ++i) {
    const prof::CctNode& cn = cct.node(i);
    ViewNode vn;
    vn.parent = (i == prof::kCctRoot) ? kViewNull : cn.parent;
    vn.role = role_of(cn.kind);
    vn.scope = cn.scope;
    vn.call_site = cn.call_site;
    vn.origin = i;
    vn.children_built = true;
    add_node(std::move(vn));
  }
  // Share the attribution's metric columns (same ids, same rows): the view
  // holds handles to the attribution's buffers, not copies of them.
  for (metrics::ColumnId c = 0; c < attr.table.num_columns(); ++c)
    table().add_column(attr.table, c);
}

}  // namespace pathview::core
