#include "pathview/sim/engine.hpp"

#include <cmath>

#include "pathview/obs/obs.hpp"
#include "pathview/support/error.hpp"

namespace pathview::sim {

ExecutionEngine::ExecutionEngine(const model::Program& prog,
                                 const model::AddressSpace& aspace,
                                 RunConfig cfg)
    : prog_(prog),
      aspace_(aspace),
      cfg_(std::move(cfg)),
      // Mix the rank into the seed so every rank has an independent stream.
      prng_(cfg_.seed * 0x9e3779b97f4a7c15ULL + cfg_.rank + 1),
      sampler_(cfg_.sampler, prng_),
      active_(prog.procs().size(), 0) {
  if (!cfg_.sampler.any_enabled())
    throw InvalidArgument("ExecutionEngine: no sampled event configured");
}

RawProfile ExecutionEngine::run() {
  PV_SPAN("sim.engine.run");
  profile_ = RawProfile();
  profile_.rank = cfg_.rank;
  true_totals_ = model::EventVector{};
  visits_ = 0;
  trace_records_ = 0;
  std::fill(active_.begin(), active_.end(), 0u);

  const model::ProcId entry = prog_.entry();
  const NodeIndex entry_node =
      profile_.child(kRawRoot, /*call_site=*/0, aspace_.proc_entry(entry));
  ++active_[entry];
  exec_body(prog_.proc(entry).body, entry_node, model::kTopLevelFrame, 1);
  --active_[entry];
  // Samples arrive in execution order; store them in key order once.
  profile_.sort_cells();

  PV_COUNTER_ADD("sim.stmt_visits", visits_);
  PV_COUNTER_ADD("sim.trie_nodes", profile_.nodes().size());
  PV_COUNTER_ADD("trace.captured_records", trace_records_);
  for (std::size_t e = 0; e < model::kNumEvents; ++e)
    PV_COUNTER_ADD("sim.samples",
                   profile_.sample_count(static_cast<model::Event>(e)));
  return std::move(profile_);
}

void ExecutionEngine::charge(const model::EventVector& cost, NodeIndex node,
                             model::Addr leaf) {
  true_totals_ += cost;
  sampler_.charge(cost, [&](model::Event e, double value) {
    profile_.add_sample(node, leaf, e, value);
    // Time-centric trace: samples of the trace event mark "at virtual time T
    // the call stack top was `node` executing `leaf`". The virtual clock is
    // the cumulative charged cost of that event, read post-charge, so times
    // are monotone and identical for every thread-count configuration.
    if (cfg_.trace.sink != nullptr && e == cfg_.trace.event) {
      const auto t = static_cast<std::uint64_t>(
          true_totals_[cfg_.trace.event] + 0.5);
      cfg_.trace.sink->append(TraceEvent{t, node, leaf});
      ++trace_records_;
    }
  });
}

void ExecutionEngine::exec_body(const std::vector<model::StmtId>& body,
                                NodeIndex node, model::InlineFrameId iframe,
                                std::uint32_t depth) {
  for (model::StmtId s : body) exec_stmt(s, node, iframe, depth);
}

void ExecutionEngine::exec_stmt(model::StmtId s, NodeIndex node,
                                model::InlineFrameId iframe,
                                std::uint32_t depth) {
  if (visits_ >= cfg_.max_visits) return;
  ++visits_;
  const model::Stmt& st = prog_.stmt(s);
  model::EventVector cost = st.cost;
  if (cfg_.cost_transform) cost = cfg_.cost_transform(cfg_.rank, cfg_.nranks, s, cost);
  const model::Addr here = aspace_.addr(iframe, s);

  switch (st.kind) {
    case model::StmtKind::kCompute:
      charge(cost, node, here);
      return;

    case model::StmtKind::kBranch:
      charge(cost, node, here);
      if (prng_.next_bool(st.taken_prob))
        exec_body(st.body, node, iframe, depth);
      return;

    case model::StmtKind::kLoop: {
      std::uint64_t trips = st.trips;
      if (st.trip_jitter > 0.0 && trips > 0) {
        const double factor =
            1.0 + st.trip_jitter * (2.0 * prng_.next_double() - 1.0);
        trips = static_cast<std::uint64_t>(
            std::llround(std::max(0.0, factor * static_cast<double>(trips))));
      }
      for (std::uint64_t t = 0; t < trips && visits_ < cfg_.max_visits;
           ++t) {
        charge(cost, node, here);  // loop-control overhead per iteration
        exec_body(st.body, node, iframe, depth);
      }
      return;
    }

    case model::StmtKind::kCall: {
      charge(cost, node, here);  // call overhead at the call-site line
      if (!prng_.next_bool(st.call_prob)) return;
      const model::ProcId callee = st.callee;
      if (active_[callee] >= st.max_rec_depth) return;
      if (depth >= cfg_.max_stack_depth) return;

      const model::InlineFrameId expansion = aspace_.inline_expansion(iframe, s);
      ++active_[callee];
      if (expansion != model::kNotInlined) {
        // Compiler-inlined: the callee body runs in the caller's dynamic
        // frame at inlined-instance addresses.
        exec_body(prog_.proc(callee).body, node, expansion, depth);
      } else {
        const NodeIndex child =
            profile_.child(node, here, aspace_.proc_entry(callee));
        exec_body(prog_.proc(callee).body, child, model::kTopLevelFrame,
                  depth + 1);
      }
      --active_[callee];
      return;
    }
  }
}

}  // namespace pathview::sim
