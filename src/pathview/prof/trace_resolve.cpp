#include "pathview/prof/trace_resolve.hpp"

#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"

namespace pathview::prof {

namespace {

struct KeyOf {
  const CanonicalCct* cct;
  detail::EdgeKey operator()(CctNodeId id) const {
    return detail::edge_key(cct->node(id));
  }
};

}  // namespace

TraceResolver::TraceResolver(const CanonicalCct& cct) : cct_(&cct) {
  PV_SPAN("trace.resolve.index");
  edges_.reserve(cct.size());
  for (CctNodeId id = 1; id < cct.size(); ++id)
    edges_.insert(detail::edge_key(cct.node(id)), id, KeyOf{cct_});
}

CctNodeId TraceResolver::find_child(CctNodeId parent, CctKind kind,
                                    structure::SNodeId scope,
                                    structure::SNodeId call_site) const {
  static_assert(detail::EdgeIndex::kNone == kCctNull);
  return edges_.find(
      {parent, static_cast<std::uint8_t>(kind), scope, call_site}, KeyOf{cct_});
}

CctNodeId TraceResolver::descend_static_chain(
    CctNodeId at, structure::SNodeId stmt_scope) const {
  const structure::StructureTree& tree = cct_->tree();
  std::vector<structure::SNodeId> chain;
  tree.scopes_below_proc(stmt_scope, chain);  // innermost first
  // Descend outermost first, exactly as correlate() inserts the chain.
  for (auto it = chain.rbegin(); it != chain.rend() && at != kCctNull; ++it) {
    const CctKind kind = tree.node(*it).kind == structure::SKind::kLoop
                             ? CctKind::kLoop
                             : CctKind::kInline;
    at = find_child(at, kind, *it);
  }
  return at;
}

TraceResolver::RankMap TraceResolver::map_rank(
    const sim::RawProfile& raw) const {
  PV_SPAN("trace.resolve.map_rank");
  const structure::StructureTree& tree = cct_->tree();
  RankMap m;
  m.resolver_ = this;

  // Mirror correlate()'s frame pass with find-only lookups. Frames the
  // sparsity pruning dropped (no samples anywhere below) resolve to
  // kCctNull; that is fine as long as no trace record lands in them.
  const auto& trie = raw.nodes();
  m.frame_of_.assign(trie.size(), kCctNull);
  m.frame_of_[sim::kRawRoot] = cct_->root();
  for (sim::NodeIndex i = 1; i < trie.size(); ++i) {
    const sim::TrieNode& tn = trie[i];
    const CctNodeId parent_frame = m.frame_of_[tn.parent];
    if (parent_frame == kCctNull) continue;
    const structure::SNodeId callee = tree.proc_of_entry(tn.callee_entry);
    if (callee == structure::kSNull)
      throw InvalidArgument("trace resolve: unknown callee entry address " +
                            std::to_string(tn.callee_entry));
    CctNodeId at = parent_frame;
    structure::SNodeId call_site = structure::kSNull;
    if (tn.call_site != 0) {
      call_site = tree.stmt_of_addr(tn.call_site);
      if (call_site == structure::kSNull)
        throw InvalidArgument("trace resolve: unmapped call-site address " +
                              std::to_string(tn.call_site));
      at = descend_static_chain(at, call_site);
    }
    if (at != kCctNull)
      m.frame_of_[i] = find_child(at, CctKind::kFrame, callee, call_site);
  }
  return m;
}

CctNodeId TraceResolver::RankMap::resolve(const sim::TraceEvent& ev) {
  // Trace streams revisit the same (trie node, leaf) cell constantly; memo
  // the full resolution per cell.
  const CellKey key{ev.node, ev.leaf};
  if (const auto it = cell_memo_.find(key); it != cell_memo_.end())
    return it->second;

  const TraceResolver& r = *resolver_;
  const structure::StructureTree& tree = r.cct_->tree();
  if (ev.node >= frame_of_.size())
    throw InvalidArgument("trace resolve: record references unknown trie node " +
                          std::to_string(ev.node));
  const CctNodeId frame = frame_of_[ev.node];
  CctNodeId id = kCctNull;
  if (frame != kCctNull) {
    const structure::SNodeId stmt = tree.stmt_of_addr(ev.leaf);
    if (stmt == structure::kSNull)
      throw InvalidArgument("trace resolve: unmapped sample address " +
                            std::to_string(ev.leaf));
    const CctNodeId at = r.descend_static_chain(frame, stmt);
    if (at != kCctNull) id = r.find_child(at, CctKind::kStmt, stmt);
  }
  if (id == kCctNull)
    throw InvalidArgument(
        "trace resolve: record context absent from the merged CCT (trace and "
        "profile are not from the same run)");
  cell_memo_.emplace(key, id);
  return id;
}

}  // namespace pathview::prof
