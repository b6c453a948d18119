// Ensembles: N experiments aligned into one supergraph.
//
// The paper's views answer "where does this run spend time"; an ensemble
// answers "which call path changed between runs". Following the union-graph
// idea of CallFlow's ensemble work, N canonical CCTs are structurally
// aligned into a single *supergraph* CCT whose nodes carry, per run, the
// metric columns of every member plus first-class differential columns
// (delta/ratio/mean/min/max/stddev and a `regressed` flag against a
// designated baseline). The supergraph is an ordinary
// prof::CanonicalCct over an ordinary metrics::Attribution, so the three
// views, pathview::query and every tool built on them work on ensembles
// unchanged.
//
// Alignment is *structural*: scopes match on (kind, name, file, line,
// call-site line) — the serial creation keys — never on entry addresses,
// which are meaningless across runs (ASLR, recompilation). The result is
// canonicalized (children sorted by those same keys, then DFS-renumbered)
// so the supergraph is byte-identical no matter how the member list is
// ordered; only the per-run column *contents* follow member order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/prof/cct.hpp"

namespace pathview::ensemble {

/// Per-member metadata surfaced by CLIs and the serve open_ensemble reply.
struct MemberInfo {
  std::string path;  // database path; empty for in-memory members
  std::string name;  // the member experiment's own name
  std::uint32_t nranks = 1;
  std::size_t cct_nodes = 0;  // member CCT size before alignment
  bool degraded = false;
  std::vector<std::uint32_t> dropped_ranks;
};

struct EnsembleOptions {
  /// Member index the differential columns measure against.
  std::size_t baseline = 0;
  /// Relative growth over baseline that flips the `regressed` flag
  /// (0.05 = "5% worse than baseline").
  double regress_threshold = 0.05;
  /// Events to attribute; empty means all six simulated events.
  std::vector<model::Event> events;
};

// --- column naming scheme ----------------------------------------------------
//
// Plain columns keep the single-experiment names ("PAPI_TOT_CYC (I)", ...)
// and hold the across-members *sum*, so totals, hot paths and existing
// queries mean the same thing they do on one run. Ensemble columns append a
// space-separated suffix to that base:
//
//   "<base> run<k>"    member k's value            (kRaw)
//   "<base> mean"      mean over all members       (kSummary)
//   "<base> min"       minimum over all members    (kSummary)
//   "<base> max"       maximum over all members    (kSummary)
//   "<base> stddev"    population stddev           (kSummary)
//   "<base> delta"     mean(non-baseline) - baseline  (kDerived)
//   "<base> ratio"     mean(non-baseline) / baseline  (kDerived)
//   "<base> regressed" 1 when delta exceeds the threshold (kDerived)
//
// plus one structural column, "presence": how many members contain the row's
// call path. The query grammar reaches these as EVENT.incl.SUFFIX, e.g.
// `where cycles.incl.delta > 0.05 * total`.

/// "<base> run<member>".
std::string run_column(std::string_view base, std::size_t member);
/// "<base> <stat>" for mean/min/max/stddev/delta/ratio/regressed.
std::string stat_column(std::string_view base, std::string_view stat);

inline constexpr std::string_view kPresenceColumn = "presence";

class Ensemble {
 public:
  /// Align `members` into a supergraph and set up the ensemble metric
  /// table (see build_columns). `paths`, when given, must parallel
  /// `members` and fills MemberInfo::path. Throws InvalidArgument on an empty member list, a
  /// null member, an out-of-range baseline or a negative threshold.
  static Ensemble align(
      const std::vector<std::shared_ptr<const db::Experiment>>& members,
      EnsembleOptions opts = {});
  static Ensemble align(
      const std::vector<std::shared_ptr<const db::Experiment>>& members,
      const std::vector<std::string>& paths, EnsembleOptions opts);

  std::size_t num_members() const { return members_.size(); }
  const std::vector<MemberInfo>& members() const { return members_; }
  std::size_t baseline() const { return opts_.baseline; }
  const EnsembleOptions& options() const { return opts_; }

  /// The union structure tree / supergraph CCT / ensemble metric table.
  const structure::StructureTree& tree() const { return *tree_; }
  const prof::CanonicalCct& cct() const { return *cct_; }
  const metrics::Attribution& attribution() const { return attr_; }

  /// Any member degraded taints the whole ensemble.
  bool degraded() const { return cct_->degraded(); }

  /// Does member `k`'s CCT contain supergraph node `n`?
  bool present(prof::CctNodeId n, std::size_t k) const {
    return (presence_[n * words_ + k / 64] >> (k % 64)) & 1u;
  }
  /// Number of members whose CCT contains supergraph node `n`.
  std::size_t presence_count(prof::CctNodeId n) const;

  /// member k's CCT node id -> supergraph node id.
  const std::vector<prof::CctNodeId>& member_map(std::size_t k) const {
    return src_->maps[k];
  }

  /// What the ensemble's column generators read. An ensemble keeps its
  /// members alive for as long as any table shares one of its blocks.
  struct Sources {
    std::vector<std::shared_ptr<const db::Experiment>> members;
    std::vector<std::vector<prof::CctNodeId>> maps;
  };

 private:
  Ensemble() = default;

  /// The union structure tree, the supergraph CCT with its summed samples,
  /// the member maps, presence bitmaps and member infos.
  void align_structure(const std::vector<std::string>& paths);
  /// The ensemble metric table over the aligned structure: the plain
  /// columns and `presence` now, each (event, flavor) block on first read.
  void build_columns();

  std::unique_ptr<structure::StructureTree> tree_;
  std::unique_ptr<prof::CanonicalCct> cct_;
  metrics::Attribution attr_;
  EnsembleOptions opts_;
  std::vector<MemberInfo> members_;
  std::shared_ptr<Sources> src_;
  // Presence bitmaps: words_ 64-bit words per supergraph node, bit k set
  // when member k contains the node.
  std::vector<std::uint64_t> presence_;
  std::size_t words_ = 0;
};

}  // namespace pathview::ensemble
