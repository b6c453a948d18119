#include "pathview/sim/parallel_runner.hpp"

#include <algorithm>

#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/parallel.hpp"

namespace pathview::sim {

std::vector<RawProfile> run_parallel(const model::Program& prog,
                                     const model::AddressSpace& aspace,
                                     const ParallelConfig& cfg) {
  PV_SPAN("sim.run_parallel");
  if (cfg.nranks == 0) throw InvalidArgument("run_parallel: nranks == 0");
  const std::uint32_t tpr = std::max(1u, cfg.threads_per_rank);
  const std::uint32_t contexts = cfg.nranks * tpr;

  std::vector<RawProfile> out(contexts);

  support::parallel_for(
      contexts,
      [&](std::size_t i) {
        RunConfig rc = cfg.base;
        const auto thread = static_cast<std::uint32_t>(i % tpr);
        rc.rank = static_cast<std::uint32_t>(i / tpr);
        rc.nranks = cfg.nranks;
        // Independent stream per (rank, thread).
        rc.seed = cfg.base.seed * 0x9e3779b97f4a7c15ULL + i;
        rc.trace.sink = cfg.trace_sink_for
                            ? cfg.trace_sink_for(rc.rank, thread)
                            : nullptr;
        ExecutionEngine engine(prog, aspace, std::move(rc));
        out[i] = engine.run();
        out[i].thread = thread;
      },
      cfg.nthreads);
  return out;
}

}  // namespace pathview::sim
