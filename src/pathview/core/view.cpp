#include "pathview/core/view.hpp"

#include "pathview/core/sort.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"

namespace pathview::core {

const char* view_type_name(ViewType t) {
  switch (t) {
    case ViewType::kCallingContext:
      return "Calling Context View";
    case ViewType::kCallers:
      return "Callers View";
    case ViewType::kFlat:
      return "Flat View";
  }
  return "?";
}

ViewNodeId View::add_node(ViewNode n) {
  const auto id = static_cast<ViewNodeId>(nodes_.size());
  const ViewNodeId parent = n.parent;
  nodes_.push_back(std::move(n));
  if (parent != kViewNull) nodes_[parent].children.push_back(id);
  table_.ensure_rows(nodes_.size());
  PV_COUNTER_ADD("core.view_rows", 1);
  return id;
}

void View::set_nodes(std::vector<ViewNode> nodes) {
  nodes_ = std::move(nodes);
  table_.ensure_rows(nodes_.size());
  PV_COUNTER_ADD("core.view_rows", nodes_.size());
}

void View::ensure_children(ViewNodeId id) {
  if (nodes_[id].children_built) return;
  const std::size_t rows_before = table_.num_rows();
  build_children(id);
  nodes_[id].children_built = true;
  PV_COUNTER_ADD("core.lazy_child_builds", 1);
  if (table_.num_rows() != rows_before) {
    // Lazily materialized rows: recompute derived columns so sorting and
    // hot-path analysis on them stay correct.
    for (metrics::ColumnId c = 0; c < table_.num_columns(); ++c)
      if (table_.desc(c).kind == metrics::MetricKind::kDerived)
        metrics::recompute_derived(table_, c);
  }
}

const std::vector<ViewNodeId>& View::children_of(ViewNodeId id) {
  ensure_children(id);
  ViewNode& n = nodes_[id];
  const auto pending_end = static_cast<std::uint32_t>(sort_history_.size());
  if (n.children.size() > 1) {
    for (std::uint32_t k = n.sorts_applied; k < pending_end; ++k)
      sort_level(n.children, table_.column(sort_history_[k].column),
                 sort_history_[k].descending);
  }
  n.sorts_applied = pending_end;
  return n.children;
}

void View::sort_by(metrics::ColumnId metric, bool descending) {
  if (metric >= table_.num_columns())
    throw InvalidArgument("sort_by: bad metric column");
  const SortKey key{metric, descending};
  if (sort_history_.empty() || sort_history_.back() != key)
    sort_history_.push_back(key);
}

bool View::is_call_site(ViewNodeId id) const {
  const ViewNode& n = nodes_[id];
  return (n.role == NodeRole::kFrame || n.role == NodeRole::kCaller) &&
         n.call_site != structure::kSNull;
}

std::string View::label(ViewNodeId id) const {
  const ViewNode& n = nodes_[id];
  const structure::StructureTree& t = tree();
  switch (n.role) {
    case NodeRole::kRoot:
      return "Experiment aggregate metrics";
    case NodeRole::kModule:
    case NodeRole::kFile:
    case NodeRole::kProc:
      return t.name_of(n.scope);
    case NodeRole::kFrame:
      return t.name_of(n.scope);
    case NodeRole::kCaller:
      return t.name_of(n.scope);
    case NodeRole::kInline:
      return "inlined from " + t.name_of(n.scope);
    case NodeRole::kLoop:
    case NodeRole::kStmt:
      return t.label(n.scope);
  }
  return "?";
}

}  // namespace pathview::core
