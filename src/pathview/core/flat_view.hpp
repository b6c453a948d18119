// The Flat View (paper Sec. III-C): correlates performance data to the
// application's static structure — load module, file, procedure, loop,
// inlined code and statement. All costs a procedure incurs in any calling
// context aggregate onto its single static scope; in addition, call sites
// appear beneath their enclosing static scope as fused <call site, callee>
// lines aggregated over all contexts.
//
// Aggregation uses the exposed-instance rule for every scope kind so that
// recursive programs are not double-counted (Sec. IV-B: "inclusive costs
// need to be computed similarly in the Flat View").
//
// The view is built in one DFS over the CCT. Every flat node but a call-site
// node stands for one structure-tree scope, so the lookups of that pass are
// dense arrays indexed by scope id: the flat node of a scope, and the number
// of active (enclosing) CCT instances of each scope, file and module key.
// Call-site nodes and their keys go through hash maps.
#pragma once

#include <unordered_map>

#include "pathview/core/view.hpp"

namespace pathview::core {

class FlatView final : public View {
 public:
  FlatView(const prof::CanonicalCct& cct, const metrics::Attribution& attr,
           RecursionPolicy policy);
  FlatView(const prof::CanonicalCct& cct, const metrics::Attribution& attr)
      : FlatView(cct, attr, RecursionPolicy::kExposedOnly) {}

 private:
  struct FlatKey {
    ViewNodeId parent;
    NodeRole role;
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

  ViewNodeId find_or_add(ViewNodeId parent, NodeRole role,
                         structure::SNodeId scope,
                         structure::SNodeId call_site = structure::kSNull);

  // Flat node of each scope (kViewNull until created); a key whose scope
  // slot holds another node (a call-site node, or a parent or role the
  // slot's node lacks, which only a malformed CCT yields) is in index_.
  std::vector<ViewNodeId> by_scope_;
  std::unordered_map<FlatKey, ViewNodeId, FlatKeyHash> index_;
};

}  // namespace pathview::core
