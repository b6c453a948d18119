// Scalability benchmarks (paper Sec. VII) and design-choice ablations
// (DESIGN.md Sec. 5), using google-benchmark:
//
//   * correlation and view construction across CCT sizes;
//   * LAZY vs EAGER Callers View construction — the paper's key
//     scalability design choice ("the Callers View is constructed
//     dynamically ... we store and process data only when needed");
//   * hot-path analysis and metric-column sorting latency (the paper's
//     interactivity claims);
//   * multi-rank merge and summarization throughput;
//   * XML vs compact binary experiment database I/O and size.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>

#include "pathview/core/callers_view.hpp"
#include "pathview/obs/export.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/core/cct_view.hpp"
#include "pathview/core/flat_view.hpp"
#include "pathview/core/hot_path.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/summarize.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/workloads/random_program.hpp"

using namespace pathview;

namespace {

/// A profiled experiment at a given program scale, built once per scale.
struct Fixture {
  workloads::Workload w;
  std::unique_ptr<prof::CanonicalCct> cct;
  std::unique_ptr<metrics::Attribution> attr;
  sim::RawProfile raw;
};

const Fixture& fixture(int scale) {
  static std::map<int, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[scale];
  if (!slot) {
    slot = std::make_unique<Fixture>();
    workloads::RandomProgramOptions opts;
    opts.seed = 1234 + static_cast<std::uint64_t>(scale);
    opts.num_procs = static_cast<std::uint32_t>(scale);
    opts.num_files = 4;
    opts.max_body_stmts = 5;
    opts.random_call_probs = false;  // denser CCTs
    slot->w = workloads::make_random_program(opts);
    sim::ExecutionEngine eng(*slot->w.program, *slot->w.lowering, slot->w.run);
    slot->raw = eng.run();
    slot->cct = std::make_unique<prof::CanonicalCct>(
        prof::correlate(slot->raw, *slot->w.tree));
    slot->attr = std::make_unique<metrics::Attribution>(
        metrics::attribute_metrics(*slot->cct, metrics::all_events()));
  }
  return *slot;
}

void BM_Correlate(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    prof::CanonicalCct cct = prof::correlate(f.raw, *f.w.tree);
    benchmark::DoNotOptimize(cct.size());
  }
  state.counters["cct_nodes"] = static_cast<double>(f.cct->size());
}
BENCHMARK(BM_Correlate)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Attribution(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    metrics::Attribution a =
        metrics::attribute_metrics(*f.cct, metrics::all_events());
    benchmark::DoNotOptimize(a.table.num_rows());
  }
}
BENCHMARK(BM_Attribution)->Arg(16)->Arg(64);

void BM_CctViewBuild(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::CctView v(*f.cct, *f.attr);
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_CctViewBuild)->Arg(16)->Arg(64);

void BM_FlatViewBuild(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::FlatView v(*f.cct, *f.attr);
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_FlatViewBuild)->Arg(16)->Arg(64);

// --- ablation: lazy vs eager Callers View ------------------------------------

void BM_CallersViewLazy(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  std::size_t nodes = 0;
  for (auto _ : state) {
    core::CallersView v(*f.cct, *f.attr,
                        {core::RecursionPolicy::kExposedOnly, true});
    nodes = v.size();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["view_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_CallersViewLazy)->Arg(16)->Arg(64);

void BM_CallersViewEager(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  std::size_t nodes = 0;
  for (auto _ : state) {
    core::CallersView v(*f.cct, *f.attr,
                        {core::RecursionPolicy::kExposedOnly, false});
    nodes = v.size();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["view_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_CallersViewEager)->Arg(16)->Arg(64);

// --- interactivity: hot path and sorting -------------------------------------

void BM_HotPath(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  core::CctView v(*f.cct, *f.attr);
  const metrics::ColumnId col =
      f.attr->cols.inclusive(model::Event::kCycles);
  for (auto _ : state) {
    auto path = core::hot_path(v, v.root(), col);
    benchmark::DoNotOptimize(path.size());
  }
}
BENCHMARK(BM_HotPath)->Arg(16)->Arg(64);

void BM_SortAllLevels(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  core::CctView v(*f.cct, *f.attr);
  const metrics::ColumnId col =
      f.attr->cols.inclusive(model::Event::kCycles);
  // Alternate the direction so every iteration re-sorts, then read every
  // level: the lazily applied sort costs what an eager one did.
  bool descending = true;
  for (auto _ : state) {
    v.sort_by(col, descending);
    descending = !descending;
    for (core::ViewNodeId id = 0; id < v.size(); ++id)
      benchmark::DoNotOptimize(v.children_of(id).data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SortAllLevels)->Arg(16)->Arg(64);

// --- parallel executions ------------------------------------------------------

void BM_SummarizeRanks(benchmark::State& state) {
  const auto nranks = static_cast<std::uint32_t>(state.range(0));
  const Fixture& f = fixture(16);
  sim::ParallelConfig pc;
  pc.nranks = nranks;
  pc.base = f.w.run;
  const auto raws = sim::run_parallel(*f.w.program, *f.w.lowering, pc);
  for (auto _ : state) {
    prof::SummaryCct s = prof::summarize(raws, *f.w.tree);
    benchmark::DoNotOptimize(s.nranks);
  }
  state.counters["ranks"] = nranks;
}
BENCHMARK(BM_SummarizeRanks)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// --- database formats ----------------------------------------------------------

void BM_DbWriteXml(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  const db::Experiment exp =
      db::Experiment::capture(*f.w.tree, *f.cct, "bench", 1);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string s = db::to_xml(exp);
    bytes = s.size();
    benchmark::DoNotOptimize(s.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_DbWriteXml)->Arg(16)->Arg(64);

void BM_DbWriteBinary(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  const db::Experiment exp =
      db::Experiment::capture(*f.w.tree, *f.cct, "bench", 1);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string s = db::to_binary(exp);
    bytes = s.size();
    benchmark::DoNotOptimize(s.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_DbWriteBinary)->Arg(16)->Arg(64);

void BM_DbReadXml(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  const std::string xml =
      db::to_xml(db::Experiment::capture(*f.w.tree, *f.cct, "bench", 1));
  for (auto _ : state) {
    db::Experiment e = db::from_xml(xml);
    benchmark::DoNotOptimize(e.nranks());
  }
}
BENCHMARK(BM_DbReadXml)->Arg(16)->Arg(64);

void BM_DbReadBinary(benchmark::State& state) {
  const Fixture& f = fixture(static_cast<int>(state.range(0)));
  const std::string bytes =
      db::to_binary(db::Experiment::capture(*f.w.tree, *f.cct, "bench", 1));
  for (auto _ : state) {
    db::Experiment e = db::from_binary(bytes);
    benchmark::DoNotOptimize(e.nranks());
  }
}
BENCHMARK(BM_DbReadBinary)->Arg(16)->Arg(64);

/// Display reporter that also captures the JSON report in a string, so we
/// can wrap it with the obs counters without requiring --benchmark_out.
class TeeReporter : public benchmark::BenchmarkReporter {
 public:
  explicit TeeReporter(std::ostream* json_out) {
    json_.SetOutputStream(json_out);
  }
  bool ReportContext(const Context& ctx) override {
    const bool a = console_.ReportContext(ctx);
    const bool b = json_.ReportContext(ctx);
    return a && b;
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    console_.ReportRuns(runs);
    json_.ReportRuns(runs);
  }
  void Finalize() override {
    console_.Finalize();
    json_.Finalize();
  }

 private:
  benchmark::ConsoleReporter console_;
  benchmark::JSONReporter json_;
};

}  // namespace

// Custom main: in addition to the console report, write the full
// google-benchmark JSON report plus the obs counter snapshot to
// BENCH_scalability.json (directory overridable via $PATHVIEW_BENCH_JSON).
// Tracing stays off unless $PATHVIEW_TRACE is set, so the numbers measure
// the disabled-mode cost of the instrumentation, not the tracer itself.
int main(int argc, char** argv) {
  // Pull out the shared provenance flags (--timestamp/--git-rev, set by
  // scripts/bench.sh) before google-benchmark sees — and rejects — them.
  std::string timestamp, git_rev;
  {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--timestamp" && i + 1 < argc) {
        timestamp = argv[++i];
      } else if (a == "--git-rev" && i + 1 < argc) {
        git_rev = argv[++i];
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  std::ostringstream json;
  TeeReporter display(&json);
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();

  std::string path = "BENCH_scalability.json";
  if (const char* dir = std::getenv("PATHVIEW_BENCH_JSON"); dir && *dir)
    path = std::string(dir) + "/" + path;
  const auto opt = [](const std::string& s) {
    return s.empty() ? std::string("null") : "\"" + s + "\"";
  };
  std::string out = "{\n\"schema\": \"pathview-bench-v2\",\n";
  out += "\"name\": \"scalability\",\n\"title\": \"scalability\",\n";
  out += "\"timestamp\": " + opt(timestamp) + ",\n";
  out += "\"git_rev\": " + opt(git_rev) + ",\n\"obs_counters\": {";
  const obs::TraceSnapshot snap = obs::snapshot();
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i ? ",\n  " : "\n  ";
    out += "\"" + snap.counters[i].first +
           "\": " + std::to_string(snap.counters[i].second);
  }
  out += "\n},\n\"benchmark\": " + json.str() + "\n}\n";
  obs::write_text_file(path, out);
  std::printf("[wrote %s]\n", path.c_str());
  return 0;
}
