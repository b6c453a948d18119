// pvbench: runs one workload of the pathview benchmark.
//
//   pvbench --workload ingest|browse|compare --seed N --seconds S --trace 0|1
//
// Prints named, human-readable figures, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The metric
// names and units below are the ones BENCHMARK.json lists.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "bench.hpp"
#include "pathview/obs/export.hpp"

namespace pvbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0)
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuTimes t;
  t.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  t.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  return t;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  throw std::runtime_error("no VmHWM in " + path);
}

void reset_peak_rss() {
  // Writing 5 resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "pvbench: check failed: %s\n", what.c_str());
  }
}

void Result::line(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  char buf[256];
  if (samples > 0)
    std::snprintf(buf, sizeof(buf), "%-40s %14.6g %-6s (n=%zu)", name.c_str(),
                  value, unit.c_str(), samples);
  else
    std::snprintf(buf, sizeof(buf), "%-40s %14.6g %s", name.c_str(), value,
                  unit.c_str());
  report.push_back(buf);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports each one (see README.md for
// what the user-facing operation is on each workload).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wait_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics: medians over the traced iterations; 0 on a workload
// whose timed part does not call the layer.
constexpr MetricSpec kPerLayer[] = {
    {"sim.run_parallel_s", "s"},
    {"structure.recover_s", "s"},
    {"db.measurements_load_s", "s"},
    {"prof.pipeline_s", "s"},
    {"prof.pipeline_cpu_s", "s"},
    {"prof.pipeline_sys_s", "s"},
    {"prof.nodes_allocated_per_created", "ratio"},
    {"prof.merged_nodes", "count"},
    {"db.save_s", "s"},
    {"db.bytes_written", "B"},
    {"db.bytes_per_node", "B"},
    {"db.load_s", "s"},
    {"metrics.attribute_s", "s"},
    {"ui.controller_s", "s"},
    {"ui.render_s", "s"},
    {"ui.rows_rendered", "count"},
    {"core.cct_hot_path_s", "s"},
    {"core.callers_hot_path_s", "s"},
    {"core.flat_flatten_s", "s"},
    {"metrics.derive_s", "s"},
    {"query.top20_s", "s"},
    {"query.rows_scanned_per_returned", "ratio"},
    {"serve.rtt_p50_ms.expand", "ms"},
    {"serve.rtt_p50_ms.collapse", "ms"},
    {"serve.rtt_p50_ms.sort", "ms"},
    {"serve.rtt_p50_ms.hot_path", "ms"},
    {"serve.rtt_p50_ms.query", "ms"},
    {"serve.handler_p50_ms.expand", "ms"},
    {"serve.handler_p50_ms.collapse", "ms"},
    {"serve.handler_p50_ms.sort", "ms"},
    {"serve.handler_p50_ms.hot_path", "ms"},
    {"serve.handler_p50_ms.query", "ms"},
    {"serve.outside_handler_ms.expand", "ms"},
    {"serve.outside_handler_ms.collapse", "ms"},
    {"serve.outside_handler_ms.sort", "ms"},
    {"serve.outside_handler_ms.hot_path", "ms"},
    {"serve.outside_handler_ms.query", "ms"},
    {"serve.reply_bytes_per_req", "B"},
    {"serve.rows_encoded_per_req", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.refused", "count"},
    {"serve.peak_rss_mb", "MB"},
    {"db.member_load_s", "s"},
    {"ensemble.align_s", "s"},
    {"ensemble.member_nodes_per_supergraph_node", "ratio"},
    {"query.regression_s", "s"},
    {"obs.trace_overhead_frac", "ratio"},
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void append_metric(std::string& out, const MetricSpec& m, double value) {
  if (out.back() != '{') out += ", ";
  out += "\"" + obs::json_escape(m.name) + "\": {\"value\": " +
         json_number(value) + ", \"unit\": \"" + obs::json_escape(m.unit) +
         "\"}";
}

std::string result_json(const Args& args, const Result& res) {
  std::string metrics = "{";
  if (args.trace) {
    std::set<std::string> known;
    for (const MetricSpec& m : kPerLayer) {
      known.insert(m.name);
      const auto it = res.layers.find(m.name);
      append_metric(metrics, m,
                    it == res.layers.end() ? 0.0 : median(it->second));
    }
    for (const auto& [name, v] : res.layers)
      if (!known.count(name))
        throw std::logic_error("layer metric not in the table: " + name);
  } else {
    const double values[] = {median(res.setup_s), res.wait_p50_ms,
                             res.ops_per_s, res.peak_rss_mb};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      append_metric(metrics, kEndToEnd[i], values[i]);
  }
  metrics += "}";
  const bool correct = res.failed == 0 && res.attempted > 0;
  return "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(res.attempted) +
         ", \"failed\": " + std::to_string(res.failed) +
         ", \"metrics\": " + metrics + "}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pvbench: %s\nusage: pvbench --workload ingest|browse|compare "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") a.trace = value == "1";
    else usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) usage("flags come in --name value pairs");
  if (a.workload != "ingest" && a.workload != "browse" &&
      a.workload != "compare")
    usage("unknown workload");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  a.self_dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path().string();
  a.work_dir = (std::filesystem::current_path() / ".bench_work" /
                (a.workload + "-" + std::to_string(::getpid())))
                   .string();
  return a;
}

}  // namespace
}  // namespace pvbench

int main(int argc, char** argv) {
  using namespace pvbench;
  const Args args = parse_args(argc, argv);
  // End-to-end figures are measured with spans and counters off; only the
  // traced half of a --trace 1 run switches them on.
  obs::set_enabled(false);
  Result res;
  int rc = 0;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "ingest") run_ingest(args, res);
    else if (args.workload == "browse") run_browse(args, res);
    else run_compare(args, res);
    if (args.trace) dogfood_trace(args, res);
    res.line("setup_s", median(res.setup_s), "s", res.setup_s.size());
    res.line("failed_frac",
             res.attempted ? static_cast<double>(res.failed) /
                                 static_cast<double>(res.attempted)
                           : 1.0,
             "frac", res.attempted);
    for (const std::string& l : res.report) std::printf("%s\n", l.c_str());
    std::printf("%s\n", result_json(args, res).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  return rc;
}
