// Trace correlation: map per-rank raw trace streams onto the canonical CCT.
//
// Raw trace records reference rank-local trie nodes and instruction
// addresses. After prof::Pipeline merges all ranks into one canonical CCT,
// TraceResolver rewrites each rank's stream into canonical CCT ids so the
// timeline view, the three profile views, and the experiment database all
// share one id space (the same correlation step hpcprof applies to
// hpctrace files).
//
// Resolution is find-only against the merged CCT: every trace record was a
// fired sample, so its full context chain carries samples and is guaranteed
// to survive correlation's sparsity pruning; a lookup miss therefore means
// the trace and profile do not belong to the same run and raises
// InvalidArgument. A resolver is immutable after construction and safe to
// share across threads (per-rank resolution state lives in RankMap).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pathview/prof/cct.hpp"
#include "pathview/prof/edge_index.hpp"
#include "pathview/sim/raw_profile.hpp"
#include "pathview/sim/trace.hpp"

namespace pathview::prof {

class TraceResolver {
 public:
  /// Index the merged CCT for find-only lookups. `cct` must outlive the
  /// resolver.
  explicit TraceResolver(const CanonicalCct& cct);

  /// Per-rank resolution state: the rank's trie mapped to canonical frames,
  /// plus a (trie node, leaf) -> canonical stmt memo. One per rank; not
  /// shared across threads.
  class RankMap {
   public:
    /// Canonical stmt node for one raw trace record. Throws InvalidArgument
    /// when the record's context is absent from the merged CCT.
    CctNodeId resolve(const sim::TraceEvent& ev);

   private:
    friend class TraceResolver;
    struct CellKey {
      std::uint32_t node;
      model::Addr leaf;
      bool operator==(const CellKey&) const = default;
    };
    struct CellKeyHash {
      std::size_t operator()(const CellKey& k) const {
        const std::uint64_t h =
            (k.leaf * 0x9e3779b97f4a7c15ULL) ^
            (static_cast<std::uint64_t>(k.node) * 0xbf58476d1ce4e5b9ULL);
        return static_cast<std::size_t>(h ^ (h >> 29));
      }
    };
    const TraceResolver* resolver_ = nullptr;
    std::vector<CctNodeId> frame_of_;  // trie node -> canonical frame
    std::unordered_map<CellKey, CctNodeId, CellKeyHash> cell_memo_;
  };

  /// Build the trie -> canonical frame map for one rank's raw profile.
  RankMap map_rank(const sim::RawProfile& raw) const;

  /// Find-only child lookup on the merged CCT (kCctNull when absent).
  CctNodeId find_child(CctNodeId parent, CctKind kind,
                       structure::SNodeId scope,
                       structure::SNodeId call_site = structure::kSNull) const;

 private:
  CctNodeId descend_static_chain(CctNodeId at,
                                 structure::SNodeId stmt_scope) const;

  const CanonicalCct* cct_;
  detail::EdgeIndex edges_;
};

}  // namespace pathview::prof
