#include "pathview/sim/raw_profile.hpp"

#include <algorithm>

#include "pathview/support/error.hpp"

namespace pathview::sim {

RawProfile::RawProfile() {
  nodes_.push_back(TrieNode{});  // index 0: the root (process) frame
}

NodeIndex RawProfile::child(NodeIndex parent, model::Addr call_site,
                            model::Addr callee_entry) {
  const EdgeKey key{parent, call_site, callee_entry};
  if (auto it = edges_.find(key); it != edges_.end()) return it->second;
  const auto idx = static_cast<NodeIndex>(nodes_.size());
  nodes_.push_back(TrieNode{parent, call_site, callee_entry});
  edges_.emplace(key, idx);
  return idx;
}

void RawProfile::add_sample(NodeIndex node, model::Addr leaf, model::Event e,
                            double value) {
  ++sample_counts_[static_cast<std::size_t>(e)];
  // Consecutive samples often hit the same cell (one decoded cell carries
  // several events); that cell is the last one stored.
  if (!cells_.empty() && cells_.back().node == node &&
      cells_.back().leaf == leaf) {
    cells_.back().counts[e] += value;
    return;
  }
  if (sorted_) {
    // Above the last key of a sorted run: a new cell, no index needed.
    if (cells_.empty() || cells_.back().node < node ||
        (cells_.back().node == node && cells_.back().leaf < leaf)) {
      cells_.push_back(Cell{node, leaf, {}});
      cells_.back().counts[e] += value;
      return;
    }
    // First out-of-order key: index what is stored, then use the index.
    sorted_ = false;
    cell_index_.reserve(cells_.size() + 1);
    for (std::size_t i = 0; i < cells_.size(); ++i)
      cell_index_.emplace(CellKey{cells_[i].node, cells_[i].leaf}, i);
  }
  const auto [it, inserted] = cell_index_.try_emplace(
      CellKey{node, leaf}, cells_.size());
  if (inserted) cells_.push_back(Cell{node, leaf, {}});
  cells_[it->second].counts[e] += value;
}

const std::vector<RawProfile::Cell>& RawProfile::cells() const {
  if (!sorted_)
    throw InvalidArgument(
        "RawProfile::cells: cells recorded out of order; call sort_cells()");
  return cells_;
}

void RawProfile::sort_cells() {
  if (sorted_) return;
  std::sort(cells_.begin(), cells_.end(), [](const Cell& a, const Cell& b) {
    return a.node != b.node ? a.node < b.node : a.leaf < b.leaf;
  });
  cell_index_ = {};
  sorted_ = true;
}

model::EventVector RawProfile::totals() const {
  model::EventVector t;
  for (const Cell& c : cells_) t += c.counts;
  return t;
}

}  // namespace pathview::sim
