#include "pathview/core/callers_view.hpp"

#include <algorithm>

#include "pathview/obs/obs.hpp"

namespace pathview::core {

CallersView::CallersView(const prof::CanonicalCct& cct,
                         const metrics::Attribution& attr, const Options& opts)
    : View(ViewType::kCallers, cct), attr_(&attr), opts_(opts), anc_(cct) {
  PV_SPAN("core.callers_view.build");
  // Root node mirrors the experiment aggregate (percent denominators).
  ViewNode root;
  root.role = NodeRole::kRoot;
  root.children_built = true;
  add_node(std::move(root));
  for (metrics::ColumnId c = 0; c < attr.table.num_columns(); ++c)
    table().add_column(attr.table.desc(c));
  for (metrics::ColumnId c = 0; c < attr.table.num_columns(); ++c)
    table().set(c, kViewRoot, attr.table.get(c, prof::kCctRoot));

  // Top-level entries: one per procedure scope with at least one frame
  // instance, in first-encounter (CCT preorder) order.
  std::vector<structure::SNodeId> order;
  std::unordered_map<structure::SNodeId, std::vector<prof::CctNodeId>>
      instances;
  cct.walk([&](prof::CctNodeId id, int) {
    const prof::CctNode& n = cct.node(id);
    if (n.kind != prof::CctKind::kFrame) return;
    auto [it, fresh] = instances.try_emplace(n.scope);
    if (fresh) order.push_back(n.scope);
    it->second.push_back(id);
  });

  for (structure::SNodeId proc : order) {
    ViewNode vn;
    vn.parent = kViewRoot;
    vn.role = NodeRole::kProc;
    vn.scope = proc;
    const ViewNodeId id = add_node(std::move(vn));
    set_metrics(id, instances[proc]);
    std::vector<Pair>& pairs = pending_[id];
    pairs.reserve(instances[proc].size());
    for (prof::CctNodeId i : instances[proc]) pairs.push_back(Pair{i, i});
  }

  if (!opts_.lazy) {
    // Breadth-first full materialization.
    for (ViewNodeId id = 0; id < size(); ++id) ensure_children(id);
  }
}

void CallersView::set_metrics(ViewNodeId id,
                              const std::vector<prof::CctNodeId>& instances) {
  const std::vector<prof::CctNodeId> exposed = anc_.exposed(instances);
  const metrics::MetricTable& src = attr_->table;
  for (metrics::ColumnId c = 0; c < src.num_columns(); ++c) {
    const bool inclusive = src.desc(c).inclusive;
    const bool exposed_only =
        inclusive || opts_.policy == RecursionPolicy::kExposedOnly;
    const std::span<const double> col = src.column(c);
    double v = 0.0;
    for (prof::CctNodeId i : exposed_only ? exposed : instances) v += col[i];
    table().set(c, id, v);
  }
}

void CallersView::build_children(ViewNodeId id) {
  // A level created on expand starts with the active key, if any, pending:
  // an expand under an active sort shows its children sorted.
  if (!sort_history().empty())
    node_mut(id).sorts_applied =
        static_cast<std::uint32_t>(sort_history().size() - 1);
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const std::vector<Pair> pairs = std::move(it->second);
  pending_.erase(it);
  ++levels_built_;

  // Group pairs by (caller procedure, call site of the frontier frame).
  struct Group {
    structure::SNodeId caller_proc;
    structure::SNodeId call_site;
    std::vector<prof::CctNodeId> instances;
    std::vector<Pair> next;
  };
  std::vector<Group> groups;
  auto group_for = [&](structure::SNodeId proc,
                       structure::SNodeId cs) -> Group& {
    for (Group& g : groups)
      if (g.caller_proc == proc && g.call_site == cs) return g;
    groups.push_back(Group{proc, cs, {}, {}});
    return groups.back();
  };

  const prof::CanonicalCct& c = cct();
  for (const Pair& p : pairs) {
    // Nearest enclosing caller frame of the frontier.
    prof::CctNodeId caller = c.node(p.frontier).parent;
    while (caller != prof::kCctNull &&
           c.node(caller).kind != prof::CctKind::kFrame &&
           c.node(caller).kind != prof::CctKind::kRoot)
      caller = c.node(caller).parent;
    if (caller == prof::kCctNull ||
        c.node(caller).kind == prof::CctKind::kRoot)
      continue;  // the frontier is an entry frame: path ends here
    Group& g =
        group_for(c.node(caller).scope, c.node(p.frontier).call_site);
    g.instances.push_back(p.instance);
    g.next.push_back(Pair{p.instance, caller});
  }

  for (Group& g : groups) {
    ViewNode vn;
    vn.parent = id;
    vn.role = NodeRole::kCaller;
    vn.scope = g.caller_proc;
    vn.call_site = g.call_site;
    const ViewNodeId child = add_node(std::move(vn));
    set_metrics(child, g.instances);
    pending_.emplace(child, std::move(g.next));
  }
}

}  // namespace pathview::core
