// The timed loop shared by the batch workloads, and the simulated input
// that `ingest` and `browse` share.
#pragma once

#include <malloc.h>

#include <vector>

#include "bench.hpp"
#include "pathview/sim/raw_profile.hpp"
#include "pathview/workloads/workload.hpp"

namespace pvbench {

/// How the benchmark seed enters the simulated inputs: each statement's
/// cost on each rank is multiplied by `scale` times a factor in [0.8, 1.2)
/// drawn from (seed, rank, statement). Call paths come from the simulation
/// seeds, which the workloads fix, so every benchmark seed yields the same
/// CCT shapes and the same amount of work. (Varying the simulation seeds
/// instead moves the merged CCT size by up to +-10% between seeds, which
/// would swamp a regression bound.)
pathview::sim::CostTransform seeded_costs(std::uint64_t seed, double scale);

/// A divergent random program (seed 7, 8 files, 56 procs, statement depth
/// 5, body 4) with its recovered structure and 64 simulated ranks, costs
/// seeded by `seed`. Records the set-up layer times when traced.
struct Simulated {
  pathview::workloads::Workload w;
  std::vector<pathview::sim::RawProfile> raws;
};
Simulated simulate_divergent(std::uint64_t seed, Result& res, bool traced);

/// Calls `iteration(traced)`, which returns the seconds a user waited for
/// one operation, once untimed to warm caches and the allocator, then until
/// args.seconds have passed (and at least kMinIters times). Each operation
/// starts from a trimmed heap, as in a fresh pvprof or pvdiff process.
/// Fills wait_p50_ms, ops_per_s (one stream of operations, so its rate is
/// the inverse of the median wait) and peak_rss_mb (the median over
/// operations of each operation's own peak, which is steadier than the
/// run's maximum). Traced runs alternate untraced operations with operations
/// traced by obs spans and counters, so both see the same machine; they
/// report the traced ones, and the ratio of the two medians is
/// obs.trace_overhead_frac. Returns every reported wait in ms.
template <typename F>
std::vector<double> measure(const Args& args, Result& res, F&& iteration) {
  constexpr std::size_t kMinIters = 3;
  iteration(false);
  std::vector<double> plain_ms, traced_ms, peaks_mb;
  pathview::obs::reset();
  const Clock::time_point t0 = Clock::now();
  while (plain_ms.size() < kMinIters ||
         (args.trace && traced_ms.size() < kMinIters) ||
         seconds_since(t0) < args.seconds) {
    const bool traced = args.trace && plain_ms.size() > traced_ms.size();
    ::malloc_trim(0);
    reset_peak_rss();
    pathview::obs::set_enabled(traced);
    const double wait_ms = iteration(traced) * 1e3;
    pathview::obs::set_enabled(false);
    peaks_mb.push_back(peak_rss_mb());
    (traced ? traced_ms : plain_ms).push_back(wait_ms);
  }
  if (args.trace)
    res.layer("obs.trace_overhead_frac",
              median(traced_ms) / median(plain_ms) - 1.0);
  const std::vector<double>& reported = args.trace ? traced_ms : plain_ms;
  res.wait_p50_ms = median(reported);
  res.ops_per_s = 1e3 / res.wait_p50_ms;
  res.peak_rss_mb = median(peaks_mb);
  return reported;
}

}  // namespace pvbench
