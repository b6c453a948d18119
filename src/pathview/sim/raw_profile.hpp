// Raw call path profiles — the output of simulated asynchronous sampling.
//
// Mirrors hpcrun's on-line data structure: a trie of dynamic calling
// contexts keyed by <return address, callee entry> pairs, with per-leaf
// event counts. Everything is address-based; correlation back to source
// constructs happens later in pathview::prof (as in hpcprof).
//
// Cells are kept in one contiguous vector. While samples arrive in
// (node, leaf) order — a decoded .pvms file stores its cells that way — a
// new cell is appended and nothing else is stored per cell. The first
// sample whose key is below the last cell's builds a (node, leaf) -> cell
// index from the cells stored so far, and every later sample goes through
// it. Either way each cell's counts are summed in sample order.
//
// Ordering rule: cells() reads the stored cells in place and requires them
// to be in (node, leaf) order; on an unsorted profile it throws
// InvalidArgument. A producer that records out of order (the simulator,
// a hand-built profile) calls sort_cells() once it is done.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pathview/model/address_space.hpp"
#include "pathview/model/program.hpp"

namespace pathview::sim {

using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kRawRoot = 0;

/// One dynamic frame in the call-path trie.
struct TrieNode {
  NodeIndex parent = kRawRoot;
  model::Addr call_site = 0;    // return address in the caller's frame
  model::Addr callee_entry = 0; // entry address of this frame's procedure
};

class RawProfile {
 public:
  RawProfile();

  /// Find-or-insert the child frame of `parent` entered from `call_site`
  /// into the procedure whose entry address is `callee_entry`.
  NodeIndex child(NodeIndex parent, model::Addr call_site,
                  model::Addr callee_entry);

  /// Record one sample: `value` units of event `e` at instruction address
  /// `leaf` while the call stack top was trie node `node`.
  void add_sample(NodeIndex node, model::Addr leaf, model::Event e,
                  double value);

  const std::vector<TrieNode>& nodes() const { return nodes_; }

  /// Flattened (node, leaf address) -> event counts records.
  struct Cell {
    NodeIndex node;
    model::Addr leaf;
    model::EventVector counts;
  };
  /// Every cell, ordered by (node, leaf), without a copy. Throws
  /// InvalidArgument when samples were recorded out of order and
  /// sort_cells() has not run since.
  const std::vector<Cell>& cells() const;

  /// Put the cells in (node, leaf) order (a no-op when they are). Samples
  /// recorded afterwards follow the same rules as before.
  void sort_cells();

  /// Total number of samples taken per event.
  std::uint64_t sample_count(model::Event e) const {
    return sample_counts_[static_cast<std::size_t>(e)];
  }

  /// Sum of recorded values per event (samples x period).
  model::EventVector totals() const;

  std::uint32_t rank = 0;
  std::uint32_t thread = 0;

 private:
  struct CellKey {
    NodeIndex node;
    model::Addr leaf;
    bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const {
      std::uint64_t h = k.leaf * 0x9e3779b97f4a7c15ULL;
      h ^= (static_cast<std::uint64_t>(k.node) + 0x9e3779b97f4a7c15ULL +
            (h << 6) + (h >> 2));
      return static_cast<std::size_t>(h * 0xbf58476d1ce4e5b9ULL);
    }
  };
  struct EdgeKey {
    NodeIndex parent;
    model::Addr call_site;
    model::Addr callee_entry;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& k) const {
      std::uint64_t h = k.call_site * 0x9e3779b97f4a7c15ULL;
      h = (h ^ k.callee_entry) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ k.parent) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  std::vector<TrieNode> nodes_;
  std::unordered_map<EdgeKey, NodeIndex, EdgeKeyHash> edges_;
  std::vector<Cell> cells_;  // in (node, leaf) order while sorted_
  // Built on the first out-of-order sample; empty while cells_ is sorted.
  std::unordered_map<CellKey, std::size_t, CellKeyHash> cell_index_;
  bool sorted_ = true;
  std::uint64_t sample_counts_[model::kNumEvents] = {};
};

}  // namespace pathview::sim
