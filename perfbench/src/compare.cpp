// The `compare` workload: the pvdiff / open_ensemble path. Set-up writes
// 16 member PVDB2 files of one program (32 ranks each, simulation seeds
// 1000 + r, +8% cost drift on the back half); each timed operation loads
// all members, aligns them into one supergraph and asks which call paths
// regressed against member 0.
#include <algorithm>
#include <memory>
#include <string>

#include "bench.hpp"
#include "measure.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/ensemble/ensemble.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pvbench {

using namespace pathview;

namespace {

constexpr std::size_t kMembers = 16;
constexpr std::uint32_t kRanks = 32;
const char* const kRegressionQuery =
    "match '**' where cycles.incl.regressed > 0 "
    "order by cycles.incl.delta desc limit 20";

std::string member_path(const Args& args, std::size_t r) {
  return args.work_dir + "/member-" + std::to_string(r) + ".pvdb";
}

/// Writes the member databases, recording each member's set-up time (its
/// simulation, merge and PVDB2 write) in res.setup_s; returns the sum of
/// member CCT sizes.
std::size_t write_members(const Args& args, Result& res) {
  workloads::RandomProgramOptions o;
  o.seed = 7;
  o.num_files = 8;
  o.num_procs = 40;
  o.max_stmt_depth = 4;
  o.max_body_stmts = 4;
  workloads::Workload w = workloads::make_random_program(o);
  double recover_s = 0.0;
  w.tree = std::make_unique<structure::StructureTree>(
      timed("bench.structure.recover", &recover_s, [&] {
        return structure::recover_structure(w.lowering->image());
      }));
  double sim_s = 0.0;
  std::size_t member_nodes = 0;
  for (std::size_t r = 0; r < kMembers; ++r) {
    const Clock::time_point t0 = Clock::now();
    sim::ParallelConfig pc;
    pc.nranks = kRanks;
    pc.base = w.run;
    pc.base.seed = 1000 + r;
    pc.base.cost_transform =
        seeded_costs(args.seed, r >= kMembers / 2 ? 1.08 : 1.0);
    const std::vector<sim::RawProfile> raws =
        timed("bench.sim.run_parallel", &sim_s, [&] {
          return sim::run_parallel(*w.program, *w.lowering, pc);
        });
    const prof::CanonicalCct cct = prof::Pipeline().run(raws, *w.tree);
    member_nodes += cct.size();
    db::save_binary(db::Experiment::capture(*w.tree, cct,
                                            "run" + std::to_string(r), kRanks),
                    member_path(args, r));
    res.setup_s.push_back(seconds_since(t0));
  }
  if (args.trace) {
    res.layer("structure.recover_s", recover_s);
    res.layer("sim.run_parallel_s", sim_s);
  }
  return member_nodes;
}

}  // namespace

void run_compare(const Args& args, Result& res) {
  // The 16 member set-ups are the repeated set-up: setup_s is the median
  // time to set up one member.
  const std::size_t member_nodes = write_members(args, res);

  std::size_t supergraph_nodes = 0;  // fixed per seed: every run must agree
  const std::vector<double> wait_ms = measure(args, res, [&](bool traced) {
    double load_s = 0.0, align_s = 0.0, query_s = 0.0;
    const Clock::time_point t0 = Clock::now();
    obs::Span span("bench.compare");
    std::vector<std::shared_ptr<const db::Experiment>> members;
    std::vector<std::string> paths;
    for (std::size_t r = 0; r < kMembers; ++r) {
      paths.push_back(member_path(args, r));
      members.push_back(timed("bench.db.member_load", &load_s, [&] {
        return std::make_shared<const db::Experiment>(
            db::load_binary(paths.back()));
      }));
    }
    const ensemble::Ensemble ens = timed("bench.ensemble.align", &align_s, [&] {
      return ensemble::Ensemble::align(members, paths, {});
    });
    const query::QueryResult regressed =
        timed("bench.query.regression", &query_s, [&] {
          return query::run(kRegressionQuery, ens.cct(),
                            ens.attribution().table);
        });
    const double wait_s = seconds_since(t0);

    if (supergraph_nodes == 0) supergraph_nodes = ens.cct().size();
    res.check(ens.cct().size() == supergraph_nodes,
              "supergraph node count changed between iterations");
    // The back half ran 8% slower, so the drift must surface as regressed
    // paths with a positive delta against member 0.
    const auto delta = std::find(regressed.columns.begin(),
                                 regressed.columns.end(),
                                 "PAPI_TOT_CYC (I) delta");
    res.check(!regressed.rows.empty() && delta != regressed.columns.end() &&
                  regressed.rows.front().values[static_cast<std::size_t>(
                      delta - regressed.columns.begin())] > 0.0,
              "regression query missed the injected +8% drift");
    if (traced) {
      res.layer("db.member_load_s", load_s);
      res.layer("ensemble.align_s", align_s);
      res.layer("query.regression_s", query_s);
      res.layer("ensemble.member_nodes_per_supergraph_node",
                static_cast<double>(member_nodes) /
                    static_cast<double>(ens.cct().size()));
    }
    return wait_s;
  });
  res.line("compare_s", res.wait_p50_ms / 1e3, "s", wait_ms.size());
  res.line("supergraph_nodes", static_cast<double>(supergraph_nodes), "count");
}

}  // namespace pvbench
