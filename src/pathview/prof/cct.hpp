// The canonical calling context tree (paper Sec. IV-A).
//
// "This data structure is synthesized by hpcprof by integrating information
// about static program structure into dynamic call chains." Nodes are either
// dynamic scopes (procedure frames — a fused <call site, callee> pair) or
// static scopes (loops, inlined procedures, statements) hung between frames
// according to the structure tree. Raw sample counts live on statement
// scopes; all metric attribution (inclusive/exclusive, Eq. 1 & 2) is done by
// pathview::metrics on top of this tree.
//
// Keyed insertion (find_or_add_child) goes through a flat sibling index
// (prof/edge_index.hpp): an open-addressing table of 8-byte slots — a node
// id plus a 32-bit hash tag, no key — at load factor <= 0.75 over a
// power-of-two capacity. The key lives in the node itself, so the index
// costs at most 8 / 0.375 ~ 21.3 bytes per node (about half that right after
// a doubling), and nothing at all until the first keyed insert.
//
// The tree also keeps its frame list: the ids of its frame and inline nodes
// in ascending order, each with the list position of its nearest frame-like
// ancestor. Call-path patterns consume only those nodes (query::Plan), so
// an unanchored pattern is matched over the list alone. The tree is
// append-only and no node's kind or parent ever changes, so the list is
// kept exact at append time and needs no invalidation.
#pragma once

#include <cstdint>
#include <vector>

#include "pathview/model/program.hpp"
#include "pathview/prof/edge_index.hpp"
#include "pathview/structure/structure_tree.hpp"

namespace pathview::prof {

enum class CctKind : std::uint8_t {
  kRoot = 0,
  kFrame,   // dynamic: a procedure frame entered from a specific call site
  kLoop,    // static: loop scope (from the structure tree)
  kInline,  // static: inlined procedure scope
  kStmt,    // static: statement scope — raw samples live here
};

const char* cct_kind_name(CctKind k);

/// True for the frame-like kinds, frames and inlined procedures: the nodes
/// that contribute a segment to a node's call path.
inline bool is_frame(CctKind k) {
  return k == CctKind::kFrame || k == CctKind::kInline;
}

using CctNodeId = std::uint32_t;
inline constexpr CctNodeId kCctRoot = 0;
inline constexpr CctNodeId kCctNull = 0xffffffffu;

struct CctNode {
  CctKind kind = CctKind::kRoot;
  CctNodeId parent = kCctNull;
  /// The structure-tree scope this node represents (proc scope for frames).
  structure::SNodeId scope = structure::kSNull;
  /// For frames: the caller-side call-site statement scope (kSNull for the
  /// entry frame). Frames are keyed by (callee scope, call site), so the
  /// same procedure called from two lines yields two distinct contexts.
  structure::SNodeId call_site = structure::kSNull;
  std::vector<CctNodeId> children;
};

class CanonicalCct {
 public:
  explicit CanonicalCct(const structure::StructureTree* tree);

  const structure::StructureTree& tree() const { return *tree_; }

  /// Pre-size node storage for `n` nodes (the two-phase pipeline merge
  /// knows the union size before materializing; the incremental fold can't).
  void reserve(std::size_t n) {
    nodes_.reserve(n);
    samples_.reserve(n);
  }

  CctNodeId root() const { return kCctRoot; }
  const CctNode& node(CctNodeId id) const { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }

  /// Raw (sampled) event counts attributed directly to `id`.
  const model::EventVector& samples(CctNodeId id) const { return samples_[id]; }
  void add_samples(CctNodeId id, const model::EventVector& ev) {
    samples_[id] += ev;
  }

  /// Find-or-insert a child of `parent` with the given identity.
  CctNodeId find_or_add_child(CctNodeId parent, CctKind kind,
                              structure::SNodeId scope,
                              structure::SNodeId call_site = structure::kSNull);

  /// Bulk-construction path (used by the pipeline merge, the database
  /// decoders and the ensemble supergraph build, which all materialize
  /// already-deduplicated trees): append a child WITHOUT looking for
  /// an existing sibling of the same identity — the caller guarantees
  /// uniqueness. The sibling index that backs find_or_add_child catches up
  /// lazily on its next use (appended nodes are indexed in id order, so
  /// among equal keys the lowest id is the one found).
  CctNodeId append_child(CctNodeId parent, CctKind kind,
                         structure::SNodeId scope,
                         structure::SNodeId call_site = structure::kSNull);

  /// Pre-size one node's child list (bulk-construction companion to
  /// append_child, when the caller knows the exact child count up front).
  void reserve_children(CctNodeId id, std::size_t n) {
    nodes_[id].children.reserve(n);
  }

  /// Ids of the frame-like nodes (is_frame), ascending.
  const std::vector<CctNodeId>& frames() const { return frames_; }
  /// Parallel to frames(): the position in frames() of each frame's nearest
  /// frame-like proper ancestor, or kNoFrame when it has none.
  const std::vector<std::uint32_t>& frame_parents() const {
    return frame_parents_;
  }
  static constexpr std::uint32_t kNoFrame = 0xffffffffu;

  /// Degraded-data marker: set when this tree was built from an incomplete
  /// measurement (missing/corrupt ranks, salvaged sample sections). Merges
  /// OR the flag — one degraded contribution taints the union — and
  /// clone_with_tree preserves it, so prof::Pipeline results and loaded
  /// experiments carry it all the way to the presentation layers.
  bool degraded() const { return degraded_; }
  void set_degraded(bool d) { degraded_ = d; }

  /// Sum of raw samples over the whole tree (== per-event totals).
  model::EventVector totals() const;

  /// Per-node inclusive raw samples (subtree sums), indexed by node id.
  std::vector<model::EventVector> inclusive_samples() const;

  /// Merge `other` into this tree (summing samples of matching nodes).
  /// Returns the mapping other-node-id -> this-node-id.
  /// Both CCTs must reference the same structure tree.
  std::vector<CctNodeId> merge(const CanonicalCct& other);

  /// Move path: when this tree is still empty (fresh root, no samples) the
  /// other tree is stolen wholesale — no node allocations, bit-identical to
  /// the copying merge. Falls back to the copying merge otherwise.
  std::vector<CctNodeId> merge(CanonicalCct&& other);

  /// Deep copy re-bound to `tree` (which must have identical scope ids,
  /// e.g. a copy of the original tree). Used when serializing experiments.
  CanonicalCct clone_with_tree(const structure::StructureTree* tree) const;

  /// Display label for a node ("g", "loop at file2.c: 8", ...).
  std::string label(CctNodeId id) const;

  /// Depth-first preorder walk; `fn(id, depth)`.
  template <typename Fn>
  void walk(Fn&& fn) const {
    walk_from(root(), 0, fn);
  }
  template <typename Fn>
  void walk_from(CctNodeId start, int depth0, Fn&& fn) const {
    // Explicit stack to survive very deep recursion chains.
    std::vector<std::pair<CctNodeId, int>> stack{{start, depth0}};
    while (!stack.empty()) {
      auto [id, depth] = stack.back();
      stack.pop_back();
      fn(id, depth);
      const auto& ch = node(id).children;
      for (auto it = ch.rbegin(); it != ch.rend(); ++it)
        stack.emplace_back(*it, depth + 1);
    }
  }

 private:
  /// Index the nodes append_child added since the last keyed insert.
  void ensure_edges();
  /// Store a new child of `parent` and keep the frame list exact.
  CctNodeId push_node(CctNodeId parent, CctKind kind, structure::SNodeId scope,
                      structure::SNodeId call_site);
  /// The edge key of a stored node, as the sibling index reads it.
  auto key_of() const {
    return [this](CctNodeId id) { return detail::edge_key(nodes_[id]); };
  }

  const structure::StructureTree* tree_;
  std::vector<CctNode> nodes_;
  std::vector<model::EventVector> samples_;
  std::vector<CctNodeId> frames_;
  std::vector<std::uint32_t> frame_parents_;
  bool degraded_ = false;
  detail::EdgeIndex edges_;
  // Nodes [1, indexed_) are in edges_ (the root is never indexed).
  std::size_t indexed_ = 1;
};

}  // namespace pathview::prof
