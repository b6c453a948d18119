#include "pathview/core/flat_view.hpp"

#include "pathview/obs/obs.hpp"

namespace pathview::core {

namespace {

/// Hash of a call-site key: (call site, callee) packed into 64 bits.
struct CallSiteKeyHash {
  std::size_t operator()(std::uint64_t k) const {
    return static_cast<std::size_t>((k ^ (k >> 31)) * 0x9e3779b97f4a7c15ULL);
  }
};

std::uint64_t call_site_key(structure::SNodeId call_site,
                            structure::SNodeId callee) {
  return static_cast<std::uint64_t>(call_site) << 32 | callee;
}

/// Slot of a scope id in an array of tree size + 1: a decoded CCT may carry
/// kSNull as a scope, which gets the last slot.
std::size_t slot_of(structure::SNodeId scope, std::size_t tree_size) {
  return scope < tree_size ? scope : tree_size;
}

}  // namespace

ViewNodeId FlatView::find_or_add(ViewNodeId parent, NodeRole role,
                                 structure::SNodeId scope,
                                 structure::SNodeId call_site) {
  // A scope's node is in its slot; any other key is in index_.
  ViewNodeId* slot = call_site == structure::kSNull
                         ? &by_scope_[slot_of(scope, by_scope_.size() - 1)]
                         : nullptr;
  if (slot != nullptr && *slot != kViewNull) {
    const ViewNode& n = node(*slot);
    if (n.parent == parent && n.role == role) return *slot;
    slot = nullptr;
  }
  const FlatKey key{parent, role, scope, call_site};
  if (slot == nullptr)
    if (auto it = index_.find(key); it != index_.end()) return it->second;
  ViewNode vn;
  vn.parent = parent;
  vn.role = role;
  vn.scope = scope;
  vn.call_site = call_site;
  vn.children_built = true;
  const ViewNodeId id = add_node(std::move(vn));
  if (slot != nullptr)
    *slot = id;
  else
    index_.emplace(key, id);
  return id;
}

FlatView::FlatView(const prof::CanonicalCct& cct,
                   const metrics::Attribution& attr, RecursionPolicy policy)
    : View(ViewType::kFlat, cct) {
  PV_SPAN("core.flat_view.build");
  const structure::StructureTree& tree = cct.tree();
  const metrics::MetricTable& src = attr.table;
  const metrics::ColumnId ncols = static_cast<metrics::ColumnId>(
      src.num_columns());
  const std::size_t nscopes = tree.size();
  by_scope_.assign(nscopes + 1, kViewNull);

  ViewNode root;
  root.role = NodeRole::kRoot;
  root.children_built = true;
  add_node(std::move(root));
  for (metrics::ColumnId c = 0; c < ncols; ++c)
    table().add_column(src.desc(c));
  for (metrics::ColumnId c = 0; c < ncols; ++c)
    table().set(c, kViewRoot, src.get(c, prof::kCctRoot));

  // One DFS over the CCT with per-key active counters: a CCT node is an
  // *exposed* member of an aggregation key iff no ancestor carries the same
  // key (paper Sec. IV-B generalized).
  std::vector<std::uint32_t> active_scope(nscopes + 1, 0);
  std::vector<std::uint32_t> active_file(nscopes + 1, 0);
  std::vector<std::uint32_t> active_module(nscopes + 1, 0);
  auto active = [&](std::vector<std::uint32_t>& counts,
                    structure::SNodeId scope) -> std::uint32_t& {
    return counts[slot_of(scope, nscopes)];
  };
  std::unordered_map<std::uint64_t, std::uint32_t, CallSiteKeyHash>
      active_call_site;
  std::vector<ViewNodeId> flat_of(cct.size(), kViewNull);
  flat_of[prof::kCctRoot] = kViewRoot;

  std::vector<const double*> in(ncols);
  for (metrics::ColumnId c = 0; c < ncols; ++c) in[c] = src.column(c).data();
  auto add_cols = [&](ViewNodeId dst, prof::CctNodeId srcRow, bool exposed,
                      bool incl_only = false) {
    for (metrics::ColumnId c = 0; c < ncols; ++c) {
      const bool inclusive = src.desc(c).inclusive;
      if (!inclusive && incl_only) continue;  // containers roll up exclusive
      if (inclusive && !exposed) continue;
      if (!inclusive && !exposed && policy == RecursionPolicy::kExposedOnly)
        continue;
      table().add(c, dst, in[c][srcRow]);
    }
  };

  struct Ev {
    prof::CctNodeId node;
    bool exiting;
  };
  std::vector<Ev> stack{{prof::kCctRoot, false}};

  while (!stack.empty()) {
    auto [id, exiting] = stack.back();
    stack.pop_back();
    const prof::CctNode& n = cct.node(id);
    if (exiting) {
      // Leave the keys the node entered: the same ones, recomputed.
      if (n.kind == prof::CctKind::kFrame) {
        const structure::SNodeId file = tree.enclosing_file(n.scope);
        --active(active_scope, n.scope);
        --active(active_file, file);
        --active(active_module, tree.node(file).parent);
        if (n.call_site != structure::kSNull)
          --active_call_site[call_site_key(n.call_site, n.scope)];
      } else if (n.kind == prof::CctKind::kLoop ||
                 n.kind == prof::CctKind::kInline) {
        --active(active_scope, n.scope);
      }
      continue;
    }
    // Statements enter no key, so they need no exit event.
    if (n.kind != prof::CctKind::kStmt) stack.push_back(Ev{id, true});
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
      stack.push_back(Ev{*it, false});

    switch (n.kind) {
      case prof::CctKind::kRoot:
        break;

      case prof::CctKind::kFrame: {
        const structure::SNodeId proc = n.scope;
        const structure::SNodeId file = tree.enclosing_file(proc);
        const structure::SNodeId mod = tree.node(file).parent;

        const ViewNodeId vmod =
            find_or_add(kViewRoot, NodeRole::kModule, mod);
        const ViewNodeId vfile = find_or_add(vmod, NodeRole::kFile, file);
        const ViewNodeId vproc = find_or_add(vfile, NodeRole::kProc, proc);
        flat_of[id] = vproc;

        add_cols(vproc, id, active(active_scope, proc)++ == 0);
        add_cols(vfile, id, active(active_file, file)++ == 0,
                 /*incl_only=*/true);
        add_cols(vmod, id, active(active_module, mod)++ == 0,
                 /*incl_only=*/true);

        // The fused <call site, callee> node beneath the caller's static
        // context. Exclusive here follows the dynamic rule applied to the
        // un-expanded call-site scope: only the callee frame's *direct*
        // statement samples (code in callee loops attributes to the loop
        // scopes under the callee's own static entry instead) — this
        // reproduces Fig. 2c (h_y = 4/0 while g_y = 6/1).
        if (n.call_site != structure::kSNull) {
          const ViewNodeId vcs =
              find_or_add(flat_of[n.parent], NodeRole::kFrame, proc,
                          n.call_site);
          const bool exposed =
              active_call_site[call_site_key(n.call_site, proc)]++ == 0;
          model::EventVector direct;
          for (prof::CctNodeId k : n.children)
            if (cct.node(k).kind == prof::CctKind::kStmt)
              direct += cct.samples(k);
          for (metrics::ColumnId c = 0; c < ncols; ++c) {
            const metrics::MetricDesc& d = src.desc(c);
            if (d.inclusive) {
              if (exposed) table().add(c, vcs, in[c][id]);
            } else if (exposed || policy == RecursionPolicy::kAllInstances) {
              table().add(c, vcs, direct[d.event]);
            }
          }
        }
        break;
      }

      case prof::CctKind::kLoop:
      case prof::CctKind::kInline: {
        const NodeRole role = n.kind == prof::CctKind::kLoop
                                  ? NodeRole::kLoop
                                  : NodeRole::kInline;
        const ViewNodeId v = find_or_add(flat_of[n.parent], role, n.scope);
        flat_of[id] = v;
        add_cols(v, id, active(active_scope, n.scope)++ == 0);
        break;
      }

      case prof::CctKind::kStmt: {
        const ViewNodeId v =
            find_or_add(flat_of[n.parent], NodeRole::kStmt, n.scope);
        flat_of[id] = v;
        // Statements are CCT leaves: instances never nest, so plain sums.
        add_cols(v, id, /*exposed=*/true);
        break;
      }
    }
  }

  // Containers roll up exclusive costs from their structural children
  // (file <- procs, module <- files, root <- modules), matching Fig. 2c
  // (file2 = 8 = g_x 4 + h_x 4).
  for (auto id = static_cast<ViewNodeId>(size()); id-- > 1;) {
    const ViewNode& vn = node(id);
    const NodeRole pr = node(vn.parent).role;
    const bool roll =
        (vn.role == NodeRole::kProc && pr == NodeRole::kFile) ||
        (vn.role == NodeRole::kFile && pr == NodeRole::kModule) ||
        (vn.role == NodeRole::kModule && pr == NodeRole::kRoot);
    if (!roll) continue;
    for (metrics::ColumnId c = 0; c < ncols; ++c)
      if (!src.desc(c).inclusive)
        table().add(c, vn.parent, table().get(c, id));
  }
}

}  // namespace pathview::core
