#include "pathview/sim/raw_profile.hpp"

#include <algorithm>

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
  const auto [it, inserted] = cell_index_.try_emplace(
      CellKey{node, leaf}, cells_.size());
  if (inserted) cells_.push_back(Cell{node, leaf, {}});
  cells_[it->second].counts[e] += value;
}

std::vector<RawProfile::Cell> RawProfile::cells() const {
  std::vector<Cell> out = cells_;
  const auto by_key = [](const Cell& a, const Cell& b) {
    return a.node != b.node ? a.node < b.node : a.leaf < b.leaf;
  };
  if (!std::is_sorted(out.begin(), out.end(), by_key))
    std::sort(out.begin(), out.end(), by_key);
  return out;
}

model::EventVector RawProfile::totals() const {
  model::EventVector t;
  for (const Cell& c : cells_) t += c.counts;
  return t;
}

}  // namespace pathview::sim
