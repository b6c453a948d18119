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
  // Mirror the CCT node-for-node; ids are preserved. A leaf's (empty) level
  // is built already; any other level is copied when it is first read.
  std::vector<ViewNode> nodes(cct.size());
  for (prof::CctNodeId i = 0; i < cct.size(); ++i) {
    const prof::CctNode& cn = cct.node(i);
    ViewNode& vn = nodes[i];
    vn.parent = i == prof::kCctRoot ? kViewNull : cn.parent;
    vn.role = role_of(cn.kind);
    vn.scope = cn.scope;
    vn.call_site = cn.call_site;
    vn.origin = i;
    vn.children_built = cn.children.empty();
  }
  set_nodes(std::move(nodes));
  // Share the attribution's metric columns (same ids, same rows): the view
  // holds handles to the attribution's buffers, not copies of them.
  for (metrics::ColumnId c = 0; c < attr.table.num_columns(); ++c)
    table().add_column(attr.table, c);
}

void CctView::build_children(ViewNodeId id) {
  node_mut(id).children = cct().node(id).children;
}

}  // namespace pathview::core
