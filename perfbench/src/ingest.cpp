// The `ingest` workload: the pvprof -> pvviewer path on one large
// experiment. Set-up writes 64 per-rank measurement files of a divergent
// random program; each timed cycle reads them, correlates and merges them
// into one canonical CCT, writes PVDB2, reopens the file to the first
// rendered CCT view and runs a fixed exploration script.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "bench.hpp"
#include "measure.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/db/measurement.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/ui/controller.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pvbench {

using namespace pathview;

namespace {

constexpr std::uint32_t kRanks = 64;
constexpr int kSetupReps = 3;
const char* const kTop20 = "match '**' order by cycles.excl desc limit 20";

/// Two pipeline workers, not one per vCPU: on a shared 4-vCPU VM a
/// parallel phase that occupies every vCPU waits for its slowest worker,
/// and the run-to-run spread of the ingest cycle was 12% with 4 workers
/// against 6.5% with 2.
prof::PipelineOptions pipeline_options() {
  prof::PipelineOptions o;
  o.nthreads = 2;
  return o;
}

/// FNV-1a over every node's shape and every sample cell, in node order.
std::uint64_t digest(const prof::CanonicalCct& cct) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  for (prof::CctNodeId id = 0; id < cct.size(); ++id) {
    const prof::CctNode& n = cct.node(id);
    mix(&n.parent, sizeof n.parent);
    mix(&n.kind, sizeof n.kind);
    mix(&n.scope, sizeof n.scope);
    mix(&n.call_site, sizeof n.call_site);
    mix(cct.samples(id).v.data(), sizeof(double) * model::kNumEvents);
  }
  return h;
}

std::size_t count_lines(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) n += c == '\n';
  return n;
}

}  // namespace

sim::CostTransform seeded_costs(std::uint64_t seed, double scale) {
  return [seed, scale](std::uint32_t rank, std::uint32_t, model::StmtId stmt,
                       const model::EventVector& base) {
    // splitmix64 over (seed, rank, stmt) -> uniform [0, 1).
    std::uint64_t z = (seed * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(rank) << 32) ^ stmt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    return base * (scale * (0.8 + 0.4 * u));
  };
}

Simulated simulate_divergent(std::uint64_t seed, Result& res, bool traced) {
  workloads::RandomProgramOptions o;
  o.seed = 7;
  o.num_files = 8;
  o.num_procs = 56;
  o.max_stmt_depth = 5;
  o.max_body_stmts = 4;
  Simulated s;
  s.w = workloads::make_random_program(o);
  double recover_s = 0.0;
  double sim_s = 0.0;
  s.w.tree = std::make_unique<structure::StructureTree>(
      timed("bench.structure.recover", &recover_s, [&] {
        return structure::recover_structure(s.w.lowering->image());
      }));
  sim::ParallelConfig pc;
  pc.nranks = kRanks;
  pc.base = s.w.run;
  pc.base.cost_transform = seeded_costs(seed, 1.0);
  s.raws = timed("bench.sim.run_parallel", &sim_s, [&] {
    return sim::run_parallel(*s.w.program, *s.w.lowering, pc);
  });
  if (traced) {
    res.layer("structure.recover_s", recover_s);
    res.layer("sim.run_parallel_s", sim_s);
  }
  return s;
}

void run_ingest(const Args& args, Result& res) {
  const std::string mdir = args.work_dir + "/measurements";
  const std::string db_path = args.work_dir + "/ingest.pvdb";
  Simulated sim;
  repeat_setup(res, kSetupReps, [&] {
    std::filesystem::remove_all(mdir);
    std::filesystem::create_directories(mdir);
    sim = simulate_divergent(args.seed, res, args.trace);
    db::save_measurements(sim.raws, mdir);
  });

  // Untimed oracle: the serial left fold over the same correlated parts.
  std::uint64_t want_digest = 0;
  std::size_t want_nodes = 0;
  {
    const prof::CanonicalCct ref =
        prof::merge_serial(prof::Pipeline().correlate(sim.raws, *sim.w.tree));
    want_digest = digest(ref);
    want_nodes = ref.size();
  }
  sim.raws.clear();
  sim.raws.shrink_to_fit();
  const structure::StructureTree& tree = *sim.w.tree;

  // Named figures come from the operations the run reports: not the
  // warm-up, and only the traced ones in a traced run.
  std::vector<double> ingest_ms, open_ms, explore_ms;
  std::size_t calls = 0;
  measure(args, res, [&](bool traced) {
    const bool reported = calls++ > 0 && traced == args.trace;
    double load_meas_s = 0, pipeline_s = 0, save_s = 0, load_s = 0,
           attribute_s = 0, controller_s = 0, render_s = 0, cct_hot_s = 0,
           callers_hot_s = 0, flat_s = 0, derive_s = 0, query_s = 0;
    const Clock::time_point t0 = Clock::now();

    // --- measurements -> PVDB2 on disk ------------------------------------
    std::size_t merged_nodes = 0;
    CpuTimes cpu0, cpu1;
    {
      obs::Span span("bench.ingest");
      const std::vector<sim::RawProfile> raws =
          timed("bench.db.load_measurements", &load_meas_s,
                [&] { return db::load_measurements(mdir); });
      cpu0 = cpu_times();
      const prof::CanonicalCct cct = timed(
          "bench.prof.pipeline", &pipeline_s,
          [&] { return prof::Pipeline(pipeline_options()).run(raws, tree); });
      cpu1 = cpu_times();
      merged_nodes = cct.size();
      timed("bench.db.save", &save_s, [&] {
        db::save_binary(db::Experiment::capture(tree, cct, "ingest", kRanks),
                        db_path);
      });
    }
    const double ingest_s = seconds_since(t0);

    // --- PVDB2 -> first rendered CCT view ---------------------------------
    const Clock::time_point t1 = Clock::now();
    std::optional<db::Experiment> exp;
    std::optional<metrics::Attribution> attr;
    std::unique_ptr<ui::ViewerController> ctl;
    std::string first_view;
    {
      obs::Span span("bench.open");
      exp.emplace(timed("bench.db.load", &load_s,
                        [&] { return db::load_binary(db_path); }));
      attr.emplace(timed("bench.metrics.attribute", &attribute_s, [&] {
        return metrics::attribute_metrics(exp->cct(), metrics::all_events());
      }));
      ctl = timed("bench.ui.controller", &controller_s, [&] {
        return std::make_unique<ui::ViewerController>(exp->cct(), *attr);
      });
      first_view =
          timed("bench.ui.render", &render_s, [&] { return ctl->render(); });
    }
    const double open_s = seconds_since(t1);

    // --- exploration script ------------------------------------------------
    const Clock::time_point t2 = Clock::now();
    const metrics::ColumnId cycles =
        attr->cols.inclusive(model::Event::kCycles);
    const metrics::ColumnId instrs =
        attr->cols.inclusive(model::Event::kInstructions);
    std::size_t cct_path = 0, callers_path = 0;
    bool flattened = false;
    query::QueryResult top;
    {
      obs::Span span("bench.explore");
      cct_path = timed("bench.core.cct_hot_path", &cct_hot_s, [&] {
        return ctl->run_hot_path(ctl->current().root(), cycles).size();
      });
      callers_path = timed("bench.core.callers_hot_path", &callers_hot_s, [&] {
        ctl->select_view(core::ViewType::kCallers);
        const std::size_t n =
            ctl->run_hot_path(ctl->current().root(), cycles).size();
        ctl->render();
        return n;
      });
      flattened = timed("bench.core.flat_flatten", &flat_s, [&] {
        ctl->select_view(core::ViewType::kFlat);
        const bool f = ctl->flatten();
        ctl->run_hot_path(ctl->current().root(), cycles);
        ctl->render();
        return f;
      });
      timed("bench.metrics.derive", &derive_s, [&] {
        ctl->add_derived("cpi", "$" + std::to_string(cycles) + " / $" +
                                    std::to_string(instrs));
      });
      top = timed("bench.query.top20", &query_s, [&] {
        return query::run(kTop20, exp->cct(), attr->table);
      });
    }
    const double explore_s = seconds_since(t2);

    res.check(exp->cct().size() == want_nodes && digest(exp->cct()) == want_digest,
              "database read back differs from the merge_serial oracle");
    res.check(count_lines(first_view) > 1 && cct_path > 1 && callers_path > 1 &&
                  flattened && top.rows.size() == 20,
              "exploration script produced an empty answer");

    if (reported) {
      ingest_ms.push_back(ingest_s * 1e3);
      open_ms.push_back(open_s * 1e3);
      explore_ms.push_back(explore_s * 1e3);
    }
    if (traced) {
      res.layer("db.measurements_load_s", load_meas_s);
      res.layer("prof.pipeline_s", pipeline_s);
      res.layer("prof.pipeline_cpu_s", cpu1.user_s - cpu0.user_s);
      res.layer("prof.pipeline_sys_s", cpu1.sys_s - cpu0.sys_s);
      res.layer("prof.merged_nodes", static_cast<double>(merged_nodes));
      res.layer("db.save_s", save_s);
      const double bytes =
          static_cast<double>(std::filesystem::file_size(db_path));
      res.layer("db.bytes_written", bytes);
      res.layer("db.bytes_per_node", bytes / static_cast<double>(merged_nodes));
      res.layer("db.load_s", load_s);
      res.layer("metrics.attribute_s", attribute_s);
      res.layer("ui.controller_s", controller_s);
      res.layer("ui.render_s", render_s);
      res.layer("ui.rows_rendered", static_cast<double>(count_lines(first_view)));
      res.layer("core.cct_hot_path_s", cct_hot_s);
      res.layer("core.callers_hot_path_s", callers_hot_s);
      res.layer("core.flat_flatten_s", flat_s);
      res.layer("metrics.derive_s", derive_s);
      res.layer("query.top20_s", query_s);
      // Rows the plan looked at (by pattern walk or by columnar scan) per
      // row it returned.
      res.layer("query.rows_scanned_per_returned",
                static_cast<double>(std::max(top.stats.nodes_visited,
                                             top.stats.rows_scanned)) /
                    static_cast<double>(top.rows.size()));
    }
    return ingest_s + open_s + explore_s;
  });
  // The traced cycle counts node allocations against nodes the correlation
  // created (useful/attempted), summed over the traced iterations.
  if (args.trace) {
    double allocated = 0, created = 0;
    for (const auto& [name, v] : obs::snapshot().counters) {
      if (name == "prof.cct_nodes_allocated") allocated = static_cast<double>(v);
      if (name == "prof.cct_nodes_created") created = static_cast<double>(v);
    }
    res.layer("prof.nodes_allocated_per_created",
              created > 0 ? allocated / created : 0.0);
  }
  res.line("ingest_s", median(ingest_ms) / 1e3, "s", ingest_ms.size());
  res.line("open_s", median(open_ms) / 1e3, "s", open_ms.size());
  res.line("explore_s", median(explore_ms) / 1e3, "s", explore_ms.size());
  res.line("prof.merged_nodes", static_cast<double>(want_nodes), "count");
}

}  // namespace pvbench
