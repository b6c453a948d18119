// Dogfooding the traced run: the spans pvbench recorded around each layer
// call become a PVDB2 self-profile and a Chrome trace, and pathview's own
// query engine ranks the benchmark layers by self time.
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/obs/export.hpp"
#include "pathview/obs/self_profile.hpp"
#include "pathview/query/plan.hpp"

namespace pvbench {

using namespace pathview;

void dogfood_trace(const Args& args, Result& res) {
  const std::filesystem::path dir = std::filesystem::current_path() /
                                    ".bench_work" / ("trace-" + args.workload);
  std::filesystem::create_directories(dir);
  const std::string profile = (dir / "self.pvdb").string();
  obs::write_text_file((dir / "trace.json").string(),
                       obs::to_chrome_trace(obs::snapshot()));
  obs::save_self_profile(profile, "pvbench-" + args.workload);

  const db::Experiment self = db::load_binary(profile);
  const metrics::Attribution attr =
      metrics::attribute_metrics(self.cct(), metrics::all_events());
  // cycles = self wall-nanoseconds of each span path.
  const query::QueryResult top =
      query::run("match '**/bench.*' order by cycles.excl desc limit 5",
                 self.cct(), attr.table);
  res.check(!top.rows.empty(), "self-profile query found no benchmark layer");
  res.report.push_back("top benchmark layers by self time (" + profile + "):");
  for (const query::ResultRow& row : top.rows)
    res.line("  " + row.path, row.values.empty() ? 0.0 : row.values[0] / 1e9,
             "s");
}

}  // namespace pvbench
