// Shared plumbing of the pathview benchmark (pvbench): command-line
// arguments, layer timing with spans, sample statistics, resident-memory
// probes, and the result object every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pathview/obs/obs.hpp"

namespace pvbench {

namespace obs = pathview::obs;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch directory for this run's inputs
  std::string self_dir;  // directory holding the pvbench (and pvserve) binary
};

/// Times one call into a layer: opens a span named `span` (recorded only
/// while obs tracing is on) and adds the wall seconds of its scope to
/// `*out`.
class LayerTimer {
 public:
  LayerTimer(const char* span, double* out) : span_(span), out_(out) {}
  ~LayerTimer() { *out_ += seconds_since(t0_); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  obs::Span span_;
  double* out_;
  Clock::time_point t0_ = Clock::now();
};

template <typename F>
decltype(auto) timed(const char* span, double* out, F&& f) {
  LayerTimer t(span, out);
  return f();
}

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0,1] (0 for an empty sample).
double percentile(std::vector<double> v, double q);

/// Process CPU time split into user and system seconds (getrusage).
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};
CpuTimes cpu_times();

/// Peak resident set (VmHWM) of `pid` in MiB; pid 0 is this process.
double peak_rss_mb(int pid = 0);
/// Restart this process's peak-resident-set tracking, so a later
/// peak_rss_mb() covers only what ran after the call.
void reset_peak_rss();

/// Per-layer samples (one value per traced iteration) and end-to-end
/// results of one run, keyed by the metric names in BENCHMARK.json.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;  // one per set-up repetition
  double wait_p50_ms = 0.0;
  double ops_per_s = 0.0;
  double peak_rss_mb = 0.0;
  std::map<std::string, std::vector<double>> layers;
  /// Human-readable lines printed above the JSON result (named,
  /// workload-specific figures such as ingest_s or nav_p99_ms).
  std::vector<std::string> report;

  void layer(const std::string& name, double v) { layers[name].push_back(v); }
  /// Count one checked operation, failed when `ok` is false.
  void check(bool ok, const std::string& what);
  void line(const std::string& name, double value, const std::string& unit,
            std::size_t samples = 0);
};

/// Runs `setup` `reps` times, recording each repetition's wall time in
/// `res.setup_s`; the last repetition's state is what the run measures.
template <typename F>
void repeat_setup(Result& res, int reps, F&& setup) {
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    setup();
    res.setup_s.push_back(seconds_since(t0));
  }
}

/// Workload entry points: set up, measure for args.seconds, check outputs.
/// With args.trace the measured time is split into an untraced half and a
/// traced half, and `res.layers` gets the per-layer metrics.
void run_ingest(const Args& args, Result& res);
void run_browse(const Args& args, Result& res);
void run_compare(const Args& args, Result& res);

/// Dogfood the traced run: save the recorded spans as a PVDB2 self-profile
/// and a Chrome trace under args.work_dir, then query the self-profile for
/// the benchmark layers with the largest self time.
void dogfood_trace(const Args& args, Result& res);

}  // namespace pvbench
