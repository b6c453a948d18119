// A bounded fork-join loop: the one worker pool pattern shared by rank
// simulation, the measurement load, per-rank correlation and ensemble
// column builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace pathview::support {

/// Worker count for `nthreads` (0 = hardware concurrency, at least 1).
std::uint32_t resolve_threads(std::uint32_t nthreads);

/// Run `fn(i)` once for every i in [0, n) on up to `nthreads` workers
/// (0 = hardware concurrency), handing indices out in ascending order.
/// Returns after every worker has joined. If any call throws, no further
/// indices are started and the first exception caught is rethrown here —
/// an exception never escapes a worker thread. With one worker (or n <= 1)
/// everything runs on the calling thread.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::uint32_t nthreads = 0);

}  // namespace pathview::support
