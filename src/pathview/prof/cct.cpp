#include "pathview/prof/cct.hpp"

#include <algorithm>
#include <numeric>

#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"

namespace pathview::prof {

const char* cct_kind_name(CctKind k) {
  switch (k) {
    case CctKind::kRoot:
      return "root";
    case CctKind::kFrame:
      return "frame";
    case CctKind::kLoop:
      return "loop";
    case CctKind::kInline:
      return "inline";
    case CctKind::kStmt:
      return "stmt";
  }
  return "?";
}

CanonicalCct::CanonicalCct(const structure::StructureTree* tree) : tree_(tree) {
  if (tree == nullptr) throw InvalidArgument("CanonicalCct: null tree");
  nodes_.push_back(CctNode{});
  samples_.emplace_back();
}

void CanonicalCct::ensure_edges() {
  if (indexed_ == nodes_.size()) return;
  edges_.reserve(nodes_.size());
  for (; indexed_ < nodes_.size(); ++indexed_) {
    const auto id = static_cast<CctNodeId>(indexed_);
    edges_.insert(detail::edge_key(nodes_[id]), id, key_of());
  }
}

CctNodeId CanonicalCct::find_or_add_child(CctNodeId parent, CctKind kind,
                                          structure::SNodeId scope,
                                          structure::SNodeId call_site) {
  ensure_edges();
  const auto id = static_cast<CctNodeId>(nodes_.size());
  const CctNodeId found = edges_.insert(
      {parent, static_cast<std::uint8_t>(kind), scope, call_site}, id,
      key_of());
  if (found != id) return found;
  push_node(parent, kind, scope, call_site);
  indexed_ = nodes_.size();
  return id;
}

CctNodeId CanonicalCct::append_child(CctNodeId parent, CctKind kind,
                                     structure::SNodeId scope,
                                     structure::SNodeId call_site) {
  return push_node(parent, kind, scope, call_site);
}

CctNodeId CanonicalCct::push_node(CctNodeId parent, CctKind kind,
                                  structure::SNodeId scope,
                                  structure::SNodeId call_site) {
  const auto id = static_cast<CctNodeId>(nodes_.size());
  if (is_frame(kind)) {
    // The nearest frame-like ancestor is already listed (parent < id), and
    // the list is ascending, so a binary search finds its position.
    CctNodeId up = parent;
    while (up != kCctRoot && !is_frame(nodes_[up].kind)) up = nodes_[up].parent;
    std::uint32_t pos = kNoFrame;
    if (up != kCctRoot)
      pos = static_cast<std::uint32_t>(
          std::lower_bound(frames_.begin(), frames_.end(), up) -
          frames_.begin());
    frames_.push_back(id);
    frame_parents_.push_back(pos);
  }
  CctNode n;
  n.kind = kind;
  n.parent = parent;
  n.scope = scope;
  n.call_site = call_site;
  nodes_.push_back(std::move(n));
  samples_.emplace_back();
  nodes_[parent].children.push_back(id);
  PV_COUNTER_ADD("prof.cct_nodes_allocated", 1);
  return id;
}

model::EventVector CanonicalCct::totals() const {
  model::EventVector t;
  for (const auto& s : samples_) t += s;
  return t;
}

std::vector<model::EventVector> CanonicalCct::inclusive_samples() const {
  std::vector<model::EventVector> incl = samples_;
  // Children always have larger ids than parents (construction invariant),
  // so a reverse sweep accumulates bottom-up.
  for (auto id = static_cast<std::uint32_t>(nodes_.size()); id-- > 1;)
    incl[nodes_[id].parent] += incl[id];
  return incl;
}

std::vector<CctNodeId> CanonicalCct::merge(const CanonicalCct& other) {
  if (tree_ != other.tree_)
    throw InvalidArgument("CanonicalCct::merge: different structure trees");
  std::vector<CctNodeId> map(other.size(), kCctNull);
  map[kCctRoot] = kCctRoot;
  degraded_ = degraded_ || other.degraded_;
  samples_[kCctRoot] += other.samples_[kCctRoot];
  // Parents precede children in id order, so a forward sweep suffices.
  for (CctNodeId id = 1; id < other.size(); ++id) {
    const CctNode& n = other.node(id);
    const CctNodeId dst =
        find_or_add_child(map[n.parent], n.kind, n.scope, n.call_site);
    map[id] = dst;
    samples_[dst] += other.samples_[id];
  }
  return map;
}

std::vector<CctNodeId> CanonicalCct::merge(CanonicalCct&& other) {
  if (tree_ != other.tree_)
    throw InvalidArgument("CanonicalCct::merge: different structure trees");
  if (nodes_.size() == 1 && samples_[kCctRoot].all_zero() &&
      edges_.size() == 0) {
    nodes_ = std::move(other.nodes_);
    samples_ = std::move(other.samples_);
    frames_ = std::move(other.frames_);
    frame_parents_ = std::move(other.frame_parents_);
    edges_ = std::move(other.edges_);
    indexed_ = other.indexed_;
    degraded_ = degraded_ || other.degraded_;
    std::vector<CctNodeId> map(nodes_.size());
    std::iota(map.begin(), map.end(), 0u);
    return map;
  }
  return merge(static_cast<const CanonicalCct&>(other));
}

CanonicalCct CanonicalCct::clone_with_tree(
    const structure::StructureTree* tree) const {
  CanonicalCct out(tree);
  out.nodes_ = nodes_;
  out.samples_ = samples_;
  out.frames_ = frames_;
  out.frame_parents_ = frame_parents_;
  out.edges_ = edges_;
  out.indexed_ = indexed_;
  out.degraded_ = degraded_;
  return out;
}

std::string CanonicalCct::label(CctNodeId id) const {
  const CctNode& n = node(id);
  switch (n.kind) {
    case CctKind::kRoot:
      return "<program root>";
    case CctKind::kFrame:
      return tree_->name_of(n.scope);
    case CctKind::kInline:
      return "inlined: " + tree_->name_of(n.scope);
    case CctKind::kLoop:
    case CctKind::kStmt:
      return tree_->label(n.scope);
  }
  return "?";
}

}  // namespace pathview::prof
