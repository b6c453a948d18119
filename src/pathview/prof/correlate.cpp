#include "pathview/prof/correlate.hpp"

#include <algorithm>

#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"

namespace pathview::prof {

namespace {

/// Insert the static scope chain (loops/inline scopes, excluding the
/// enclosing proc and the statement itself) below `at`, returning the
/// deepest inserted node. `chain` is scratch storage reused across calls.
CctNodeId insert_static_chain(CanonicalCct& cct,
                              const structure::StructureTree& tree,
                              CctNodeId at, structure::SNodeId stmt_scope,
                              std::vector<structure::SNodeId>& chain) {
  tree.scopes_below_proc(stmt_scope, chain);  // innermost first
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const CctKind kind = tree.node(*it).kind == structure::SKind::kLoop
                             ? CctKind::kLoop
                             : CctKind::kInline;
    at = cct.find_or_add_child(at, kind, *it);
  }
  return at;
}

/// Sparsity (paper Sec. V-A): "there is no representation for a scope ...
/// unless there is a non-zero performance metric or it is a parent of
/// another scope that meets this criteria." The trie records every frame
/// entered, including ones no sample landed in; drop every node whose
/// inclusive samples are all zero. Such frames are rare, so the tree is
/// compacted only when one exists and returned as is otherwise.
CanonicalCct prune_unsampled(CanonicalCct&& cct) {
  const std::vector<model::EventVector> incl = cct.inclusive_samples();
  const auto unsampled = std::count_if(
      incl.begin() + 1, incl.end(),
      [](const model::EventVector& v) { return v.all_zero(); });
  if (unsampled == 0) return std::move(cct);

  // Walk in id order, so parents are placed before their children. Kept
  // keys stay unique among siblings, so append_child yields the ids, child
  // lists and samples a keyed rebuild would.
  CanonicalCct pruned(&cct.tree());
  pruned.reserve(cct.size() - static_cast<std::size_t>(unsampled));
  std::vector<CctNodeId> map(cct.size(), kCctNull);
  map[kCctRoot] = pruned.root();
  for (CctNodeId id = 1; id < cct.size(); ++id) {
    const CctNode& n = cct.node(id);
    if (incl[id].all_zero() || map[n.parent] == kCctNull) continue;
    const CctNodeId dst =
        pruned.append_child(map[n.parent], n.kind, n.scope, n.call_site);
    map[id] = dst;
    pruned.add_samples(dst, cct.samples(id));
  }
  return pruned;
}

}  // namespace

CanonicalCct correlate(const sim::RawProfile& raw,
                       const structure::StructureTree& tree) {
  PV_SPAN("prof.correlate");
  CanonicalCct cct(&tree);

  // Map each raw trie frame to its canonical frame node. Trie parents have
  // smaller indexes than children, so one forward pass suffices.
  const auto& trie = raw.nodes();
  std::vector<CctNodeId> frame_of(trie.size(), kCctNull);
  frame_of[sim::kRawRoot] = cct.root();
  std::vector<structure::SNodeId> chain;

  for (sim::NodeIndex i = 1; i < trie.size(); ++i) {
    const sim::TrieNode& tn = trie[i];
    const CctNodeId parent_frame = frame_of[tn.parent];
    const structure::SNodeId callee = tree.proc_of_entry(tn.callee_entry);
    if (callee == structure::kSNull)
      throw InvalidArgument("correlate: unknown callee entry address " +
                            std::to_string(tn.callee_entry));

    CctNodeId at = parent_frame;
    structure::SNodeId call_site = structure::kSNull;
    if (tn.call_site != 0) {
      call_site = tree.stmt_of_addr(tn.call_site);
      if (call_site == structure::kSNull)
        throw InvalidArgument("correlate: unmapped call-site address " +
                              std::to_string(tn.call_site));
      // Loops / inline scopes in the caller that enclose the call site are
      // part of the calling context (paper Sec. III-D2).
      at = insert_static_chain(cct, tree, at, call_site, chain);
    }
    frame_of[i] = cct.find_or_add_child(at, CctKind::kFrame, callee, call_site);
  }

  // Attribute sample cells: resolve each leaf address to its statement
  // scope and materialize the static chain inside the frame.
  const std::vector<sim::RawProfile::Cell> cells = raw.cells();
  PV_COUNTER_ADD("prof.sample_cells", cells.size());
  for (const sim::RawProfile::Cell& cell : cells) {
    const CctNodeId frame = frame_of[cell.node];
    const structure::SNodeId stmt = tree.stmt_of_addr(cell.leaf);
    if (stmt == structure::kSNull)
      throw InvalidArgument("correlate: unmapped sample address " +
                            std::to_string(cell.leaf));
    const CctNodeId at = insert_static_chain(cct, tree, frame, stmt, chain);
    const CctNodeId leaf =
        cct.find_or_add_child(at, CctKind::kStmt, stmt);
    cct.add_samples(leaf, cell.counts);
  }

  const std::size_t created = cct.size();
  CanonicalCct pruned = prune_unsampled(std::move(cct));
  PV_COUNTER_ADD("prof.cct_nodes_created", created);
  PV_COUNTER_ADD("prof.cct_nodes_pruned", created - pruned.size());
  return pruned;
}

}  // namespace pathview::prof
