// Query engine scaling harness: executes pathview::query plans against a
// 64-rank merged experiment (tens of thousands of CCT nodes) and gates the
// two properties the columnar MetricTable redesign bought:
//   - a metric-predicate filter compiled onto MetricTable::scan (one
//     contiguous column buffer) must beat the same predicate evaluated as a
//     per-row program (the row-wise get() shape every consumer used before
//     the redesign) by >= 5x;
//   - the end-to-end "top 20 regressing paths" query — parse, compile,
//     match, filter, sort, limit — must finish under 100 ms.
// Info rows also time an unpatterned top-20 (the partial-sort path) and an
// anchored pattern (the pruning DFS), so a regression in either strategy
// shows up in the output.
// Also checks byte-determinism (two executions, identical rows) and writes
// BENCH_query_scaling.json on the pathview-bench-v2 schema.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/workloads/random_program.hpp"

using namespace pathview;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`reps` wall-clock of `fn` in seconds.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

bool same_rows(const query::QueryResult& a, const query::QueryResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].node != b.rows[i].node) return false;
    if (a.rows[i].values != b.rows[i].values) return false;
    if (a.rows[i].path != b.rows[i].path) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::set_enabled(true);
  constexpr std::uint32_t kRanks = 64;
  constexpr int kReps = 5;

  bench::Report rep("query engine over a 64-rank merged experiment",
                    bench::meta_from_args(argc, argv, "query_scaling"));
  rep.config("ranks", static_cast<double>(kRanks));
  rep.config("reps", static_cast<double>(kReps));

  // Divergent recursive call paths (each rank explores its own slice of the
  // context space) so the merged CCT — and thus the metric table the query
  // engine scans — is much larger than any single rank's tree.
  workloads::RandomProgramOptions wopts;
  wopts.seed = 7;
  wopts.num_files = 8;
  wopts.num_procs = 40;
  wopts.max_stmt_depth = 4;
  wopts.max_body_stmts = 4;
  workloads::Workload w = workloads::make_random_program(wopts);
  sim::ParallelConfig pc;
  pc.nranks = kRanks;
  pc.base = w.run;
  const std::vector<sim::RawProfile> raws =
      sim::run_parallel(*w.program, *w.lowering, pc);
  const prof::CanonicalCct cct = prof::Pipeline().run(raws, *w.tree);
  const metrics::Attribution attr =
      metrics::attribute_metrics(cct, metrics::all_events());
  const std::size_t nrows = attr.table.num_rows();
  rep.info("merged CCT nodes (= metric rows)", static_cast<double>(nrows));

  const metrics::ColumnId incl = attr.cols.inclusive(model::Event::kCycles);
  // A bound that keeps a few percent of the rows: selective enough that the
  // filter dominates, populated enough that the match isn't trivial.
  const double total = attr.table.get(incl, prof::kCctRoot);
  const double bound = 0.01 * total;

  // --- columnar scan vs the row-wise program ------------------------------
  // Same predicate twice: once in the shape the planner compiles onto
  // MetricTable::scan, once defeated into the generic per-row program (a
  // get()-per-row interpreter — the only shape possible before the columnar
  // redesign). Both run through Plan::execute, so the comparison isolates
  // the filter.
  const std::string pred = "where cycles.incl > " + std::to_string(bound);
  const query::Plan fast = query::compile(query::parse(pred), cct, attr.table);
  const query::Plan slow = query::compile(
      query::parse("where 0 + cycles.incl > " + std::to_string(bound)), cct,
      attr.table);
  const query::QueryResult fast_res = fast.execute();
  rep.info("rows matched by the predicate",
           static_cast<double>(fast_res.stats.rows_matched));
  const double scan_s = best_of(kReps, [&] { fast.execute(); });
  const double program_s = best_of(kReps, [&] { slow.execute(); });
  rep.info("columnar scan filter [ms]", scan_s * 1e3);
  rep.info("row-wise program filter [ms]", program_s * 1e3);
  const double speedup = program_s / scan_s;
  rep.row("columnar scan speedup vs row-wise loop (>= 5x)", 1,
          speedup >= 5.0 ? 1 : 0, 0);
  rep.info("measured scan speedup", speedup);

  // Sanity: both filter shapes select the same rows.
  rep.row("scan and program select identical rows", 1,
          same_rows(fast_res, slow.execute()) ? 1 : 0, 0);

  // A hand-written get() loop for reference (what a caller doing its own
  // row-wise filtering pays, without the program interpreter on top).
  std::size_t naive_hits = 0;
  const double naive_s = best_of(kReps, [&] {
    std::size_t hits = 0;
    for (std::size_t r = 0; r < nrows; ++r)
      if (attr.table.get(incl, r) > bound) ++hits;
    naive_hits = hits;
  });
  rep.info("hand-written get() loop [ms]", naive_s * 1e3);
  if (naive_hits != fast_res.stats.rows_matched) {
    std::fprintf(stderr, "hit-count mismatch: %zu vs %llu\n", naive_hits,
                 static_cast<unsigned long long>(fast_res.stats.rows_matched));
    return 1;
  }

  // --- the headline query, end to end -------------------------------------
  // "Top 20 regressing paths": match everything, keep the >1%-of-total
  // contexts, order by exclusive cycles, take 20 — parse + compile + match +
  // filter + sort + limit per iteration.
  const std::string top20 =
      "match '**' where cycles.incl > 0.01*total "
      "order by cycles.excl desc limit 20";
  const auto run_top20 = [&] { return query::run(top20, cct, attr.table); };
  const query::QueryResult once = run_top20();
  const double e2e_s = best_of(kReps, [&] { run_top20(); });
  rep.info("top-20 rows returned", static_cast<double>(once.rows.size()));
  rep.gate_max("top-20 query end-to-end [ms]", e2e_s * 1e3, 100.0);
  rep.row("top-20 query is deterministic", 1,
          same_rows(once, run_top20()) ? 1 : 0, 0);

  // The two other plan shapes: every row ordered with no pattern (top-k
  // selection over the whole table), and an anchored pattern whose DFS
  // prunes all but the first levels.
  const double unpatterned_s = best_of(kReps, [&] {
    query::run("order by cycles.excl desc limit 20", cct, attr.table);
  });
  rep.info("unpatterned order by ... limit 20 [ms]", unpatterned_s * 1e3);
  const std::string main_name = cct.tree().name_of(
      cct.node(cct.node(prof::kCctRoot).children.front()).scope);
  const std::string anchored = "match '" + main_name + "/*'";
  const double anchored_s =
      best_of(kReps, [&] { query::run(anchored, cct, attr.table); });
  rep.info("anchored '" + main_name + "/*' match [ms]", anchored_s * 1e3);

  rep.write_json("BENCH_query_scaling.json");
  return rep.exit_code();
}
