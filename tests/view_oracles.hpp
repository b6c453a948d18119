// Reference builds of the Calling Context and Flat views, kept as oracles
// for the production constructors in core/.
//
// EagerCctView mirrors the CCT node for node and copies every child list at
// construction, so every level exists before the first sort. HashFlatView
// is the Flat View's DFS with every lookup in a hash map: the flat node of a
// (parent, role, scope, call site) key, and the active-instance counter of
// each aggregation key, with the keys each CCT node entered kept per node
// and the sums added row by row as the DFS visits. core::CctView and
// core::FlatView must match them field for field and bit for bit.
#pragma once

#include <unordered_map>
#include <vector>

#include "pathview/core/view.hpp"

namespace pathview::testutil {

class EagerCctView final : public core::View {
 public:
  EagerCctView(const prof::CanonicalCct& cct, const metrics::Attribution& attr)
      : View(core::ViewType::kCallingContext, cct) {
    for (prof::CctNodeId i = 0; i < cct.size(); ++i) {
      const prof::CctNode& cn = cct.node(i);
      core::ViewNode vn;
      vn.parent = (i == prof::kCctRoot) ? core::kViewNull : cn.parent;
      vn.role = role_of(cn.kind);
      vn.scope = cn.scope;
      vn.call_site = cn.call_site;
      vn.origin = i;
      vn.children_built = true;
      add_node(std::move(vn));
    }
    for (metrics::ColumnId c = 0; c < attr.table.num_columns(); ++c)
      table().add_column(attr.table, c);
  }

 private:
  static core::NodeRole role_of(prof::CctKind k) {
    switch (k) {
      case prof::CctKind::kRoot:
        return core::NodeRole::kRoot;
      case prof::CctKind::kFrame:
        return core::NodeRole::kFrame;
      case prof::CctKind::kLoop:
        return core::NodeRole::kLoop;
      case prof::CctKind::kInline:
        return core::NodeRole::kInline;
      case prof::CctKind::kStmt:
        return core::NodeRole::kStmt;
    }
    return core::NodeRole::kRoot;
  }
};

class HashFlatView final : public core::View {
 public:
  HashFlatView(const prof::CanonicalCct& cct, const metrics::Attribution& attr,
               core::RecursionPolicy policy)
      : View(core::ViewType::kFlat, cct) {
    using core::NodeRole;
    using core::ViewNodeId;
    const structure::StructureTree& tree = cct.tree();
    const metrics::MetricTable& src = attr.table;

    core::ViewNode root;
    root.role = NodeRole::kRoot;
    root.children_built = true;
    add_node(std::move(root));
    for (metrics::ColumnId c = 0; c < src.num_columns(); ++c)
      table().add_column(src.desc(c));
    for (metrics::ColumnId c = 0; c < src.num_columns(); ++c)
      table().set(c, core::kViewRoot, src.get(c, prof::kCctRoot));

    std::unordered_map<AggKey, std::uint32_t, AggKeyHash> active;
    std::vector<ViewNodeId> flat_of(cct.size(), core::kViewNull);
    flat_of[prof::kCctRoot] = core::kViewRoot;

    auto add_cols = [&](ViewNodeId dst, prof::CctNodeId srcRow, bool exposed,
                        bool incl_only = false) {
      for (metrics::ColumnId c = 0; c < src.num_columns(); ++c) {
        const bool inclusive = src.desc(c).inclusive;
        if (!inclusive && incl_only) continue;
        if (inclusive && !exposed) continue;
        if (!inclusive && !exposed &&
            policy == core::RecursionPolicy::kExposedOnly)
          continue;
        table().add(c, dst, src.get(c, srcRow));
      }
    };

    struct Ev {
      prof::CctNodeId node;
      bool exiting;
    };
    std::vector<Ev> stack{{prof::kCctRoot, false}};
    std::vector<std::vector<AggKey>> held(cct.size());

    while (!stack.empty()) {
      auto [id, exiting] = stack.back();
      stack.pop_back();
      if (exiting) {
        for (const AggKey& k : held[id]) --active[k];
        held[id].clear();
        continue;
      }
      stack.push_back(Ev{id, true});
      const auto& ch = cct.node(id).children;
      for (auto it = ch.rbegin(); it != ch.rend(); ++it)
        stack.push_back(Ev{*it, false});

      const prof::CctNode& n = cct.node(id);
      auto enter_key = [&](const AggKey& k) {
        const bool exposed = (active[k]++ == 0);
        held[id].push_back(k);
        return exposed;
      };

      switch (n.kind) {
        case prof::CctKind::kRoot:
          break;

        case prof::CctKind::kFrame: {
          const structure::SNodeId proc = n.scope;
          const structure::SNodeId file = tree.enclosing_file(proc);
          const structure::SNodeId mod = tree.node(file).parent;
          const ViewNodeId vmod =
              find_or_add(core::kViewRoot, NodeRole::kModule, mod);
          const ViewNodeId vfile = find_or_add(vmod, NodeRole::kFile, file);
          const ViewNodeId vproc = find_or_add(vfile, NodeRole::kProc, proc);
          flat_of[id] = vproc;

          add_cols(vproc, id, enter_key(AggKey{Tag::kScope, proc, 0}));
          add_cols(vfile, id, enter_key(AggKey{Tag::kFile, file, 0}),
                   /*incl_only=*/true);
          add_cols(vmod, id, enter_key(AggKey{Tag::kModule, mod, 0}),
                   /*incl_only=*/true);

          if (n.call_site != structure::kSNull) {
            const ViewNodeId vparent = flat_of[cct.node(id).parent];
            const ViewNodeId vcs =
                find_or_add(vparent, NodeRole::kFrame, proc, n.call_site);
            const bool exposed =
                enter_key(AggKey{Tag::kCallSite, n.call_site, proc});
            for (metrics::ColumnId c = 0; c < src.num_columns(); ++c) {
              const metrics::MetricDesc& d = src.desc(c);
              if (d.inclusive) {
                if (exposed) table().add(c, vcs, src.get(c, id));
              } else {
                if (!exposed && policy == core::RecursionPolicy::kExposedOnly)
                  continue;
                double direct = 0.0;
                for (prof::CctNodeId k : cct.node(id).children)
                  if (cct.node(k).kind == prof::CctKind::kStmt)
                    direct += cct.samples(k)[d.event];
                table().add(c, vcs, direct);
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
          const ViewNodeId v =
              find_or_add(flat_of[cct.node(id).parent], role, n.scope);
          flat_of[id] = v;
          add_cols(v, id, enter_key(AggKey{Tag::kScope, n.scope, 0}));
          break;
        }

        case prof::CctKind::kStmt: {
          const ViewNodeId v = find_or_add(flat_of[cct.node(id).parent],
                                           NodeRole::kStmt, n.scope);
          flat_of[id] = v;
          add_cols(v, id, /*exposed=*/true);
          break;
        }
      }
    }

    for (auto id = static_cast<ViewNodeId>(size()); id-- > 1;) {
      const core::ViewNode& vn = node(id);
      const NodeRole pr = node(vn.parent).role;
      const bool roll =
          (vn.role == NodeRole::kProc && pr == NodeRole::kFile) ||
          (vn.role == NodeRole::kFile && pr == NodeRole::kModule) ||
          (vn.role == NodeRole::kModule && pr == NodeRole::kRoot);
      if (!roll) continue;
      for (metrics::ColumnId c = 0; c < src.num_columns(); ++c)
        if (!src.desc(c).inclusive)
          table().add(c, vn.parent, table().get(c, id));
    }
  }

 private:
  enum class Tag : std::uint8_t { kScope, kFile, kModule, kCallSite };
  struct AggKey {
    Tag tag;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    bool operator==(const AggKey&) const = default;
  };
  struct AggKeyHash {
    std::size_t operator()(const AggKey& k) const {
      std::uint64_t h = static_cast<std::uint64_t>(k.tag);
      h = h * 0x9e3779b97f4a7c15ULL + k.a;
      h = h * 0xbf58476d1ce4e5b9ULL + k.b;
      return static_cast<std::size_t>(h ^ (h >> 31));
    }
  };
  struct FlatKey {
    core::ViewNodeId parent;
    core::NodeRole role;
    structure::SNodeId scope;
    structure::SNodeId call_site;
    bool operator==(const FlatKey&) const = default;
  };
  struct FlatKeyHash {
    std::size_t operator()(const FlatKey& k) const {
      std::uint64_t h = k.parent;
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(k.role);
      h = h * 0xbf58476d1ce4e5b9ULL + k.scope;
      h = h * 0x94d049bb133111ebULL + k.call_site;
      return static_cast<std::size_t>(h ^ (h >> 31));
    }
  };

  core::ViewNodeId find_or_add(core::ViewNodeId parent, core::NodeRole role,
                               structure::SNodeId scope,
                               structure::SNodeId call_site =
                                   structure::kSNull) {
    const FlatKey key{parent, role, scope, call_site};
    if (auto it = index_.find(key); it != index_.end()) return it->second;
    core::ViewNode vn;
    vn.parent = parent;
    vn.role = role;
    vn.scope = scope;
    vn.call_site = call_site;
    vn.children_built = true;
    const core::ViewNodeId id = add_node(std::move(vn));
    index_.emplace(key, id);
    return id;
  }

  std::unordered_map<FlatKey, core::ViewNodeId, FlatKeyHash> index_;
};

}  // namespace pathview::testutil
