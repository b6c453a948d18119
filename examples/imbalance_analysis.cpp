// Case study: SPMD load imbalance (the paper's PFLOTRAN study, Fig. 7 /
// Sec. VI-C). Demonstrates:
//   * simulating an R-rank parallel execution on a thread pool;
//   * summarizing per-rank profiles into mean/min/max/stddev statistics
//     (the paper's scalable "finalization" step);
//   * identifying load imbalance by sorting on total inclusive idleness and
//     drilling down with hot path analysis;
//   * the per-rank scatter / sorted / histogram panels of Fig. 7;
//   * saving and re-loading the experiment database (XML + binary).
//
// Usage:  ./build/examples/imbalance_analysis [nranks]   (default 64)
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "pathview/analysis/imbalance.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/metrics/summary.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/prof/summarize.hpp"
#include "pathview/ui/rank_plot.hpp"
#include "pathview/ui/tree_table.hpp"
#include "pathview/core/cct_view.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/support/format.hpp"
#include "pathview/workloads/subsurface.hpp"

using namespace pathview;

int main(int argc, char** argv) {
  const auto nranks =
      static_cast<std::uint32_t>(argc > 1 ? std::atoi(argv[1]) : 64);
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(nranks);
  std::printf("simulating pflotran.x on %u ranks...\n", nranks);

  sim::ParallelConfig pc;
  pc.nranks = nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const prof::SummaryCct summary = prof::summarize(raws, *w.tree);
  const auto parts = prof::Pipeline().correlate(raws, *w.tree);

  std::puts("\n=== scopes ranked by total inclusive idleness ===");
  const analysis::ImbalanceReport rep =
      analysis::analyze_imbalance(summary, model::Event::kIdle, 8);
  std::printf("%-44s %12s %10s %10s %9s\n", "scope", "total idle", "mean",
              "max", "imbal%");
  for (const auto& row : rep.rows)
    std::printf("%-44s %12s %10s %10s %8.1f%%\n", row.label.c_str(),
                format_scientific(row.total).c_str(),
                format_scientific(row.mean).c_str(),
                format_scientific(row.max).c_str(), row.imbalance_pct);

  std::puts("\n=== hot path over summed idleness (Fig. 7 drill-down) ===");
  const auto path =
      analysis::imbalance_hot_path(summary, model::Event::kIdle, 0.5);
  for (std::size_t i = 0; i < path.size(); ++i)
    std::printf("%*s%s\n", static_cast<int>(2 * i), "",
                summary.cct.label(path[i]).c_str());

  // Per-rank inclusive cycles at the imbalance context: the three panels.
  const prof::CctNodeId ctx = path.back();
  std::vector<double> series = analysis::per_rank_inclusive(
      parts, summary.cct, ctx, model::Event::kCycles);

  std::puts("\n=== per-rank inclusive cycles (scatter, as in Fig. 7) ===");
  std::fputs(ui::render_rank_scatter(series).c_str(), stdout);

  std::puts("\n=== sorted ===");
  std::fputs(ui::render_sorted_curve(series).c_str(), stdout);
  std::sort(series.begin(), series.end());
  std::printf("  min %s / median %s / max %s\n",
              format_scientific(series.front()).c_str(),
              format_scientific(quantile(series, 0.5)).c_str(),
              format_scientific(series.back()).c_str());

  std::puts("\n=== histogram of per-rank inclusive cycles ===");
  const analysis::Histogram hist(series, 10);
  std::fputs(hist.render().c_str(), stdout);

  // The paper's finalization step in the viewer: render the union CCT with
  // cross-rank summary columns (Sum/Mean/Min/Max/StdDev) plus a derived
  // imbalance column, sorted by total idleness.
  std::puts("\n=== Calling Context View with summary metrics ===");
  {
    const metrics::Attribution attr = metrics::attribute_metrics(
        summary.cct, std::array{model::Event::kCycles});
    core::CctView view(summary.cct, attr);
    const metrics::SummaryColumns sc = metrics::add_summary_columns(
        view.table(), summary, model::Event::kIdle);
    const metrics::ColumnId imb =
        metrics::add_imbalance_metric(view.table(), sc);
    view.sort_by(sc.sum);
    ui::ExpansionState exp;
    for (prof::CctNodeId id : path) exp.expand(id);
    ui::TreeTableOptions topts;
    topts.columns = {sc.sum, sc.mean, sc.max, sc.stddev, imb};
    topts.cell.show_percent = false;
    topts.cell.width = 12;
    std::fputs(render_tree_table(view, exp, topts).c_str(), stdout);
  }

  // Round-trip the experiment database in both formats.
  const prof::CanonicalCct& merged = summary.cct;
  const db::Experiment exp =
      db::Experiment::capture(*w.tree, merged, "pflotran-imbalance", nranks);
  db::save_xml(exp, "/tmp/pflotran.xml");
  db::save_binary(exp, "/tmp/pflotran.pvdb");
  const db::Experiment back = db::load_binary("/tmp/pflotran.pvdb");
  std::printf("\nexperiment db: xml=%zu bytes, binary=%zu bytes (%.1fx)\n",
              db::to_xml(exp).size(), db::to_binary(exp).size(),
              static_cast<double>(db::to_xml(exp).size()) /
                  static_cast<double>(db::to_binary(exp).size()));
  std::printf("binary round trip ok: %s\n",
              db::Experiment::equivalent(exp, back) ? "yes" : "NO");
  return 0;
}
