// Tests for the self-instrumentation layer (pathview/obs): span recording
// and nesting, counter accumulation across threads, disabled-mode no-ops,
// the exporters, and the self-profile round trip through the experiment
// database formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "pathview/core/callers_view.hpp"
#include "pathview/core/cct_view.hpp"
#include "pathview/core/flat_view.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/obs/export.hpp"
#include "pathview/obs/log.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/obs/sampler.hpp"
#include "pathview/obs/self_profile.hpp"
#include "pathview/support/error.hpp"
#include "bench_util.hpp"
#include "json_util.hpp"

namespace pathview {
namespace {

// Tests driving the PV_* macros can't observe anything when the macros are
// compiled out; the direct-API tests below still run in that configuration.
#if defined(PATHVIEW_OBS_DISABLED)
#define SKIP_IF_COMPILED_OUT() GTEST_SKIP() << "obs macros compiled out"
#else
#define SKIP_IF_COMPILED_OUT() static_cast<void>(0)
#endif

/// Every test starts from a clean, enabled tracer and leaves it disabled.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::reset();
    obs::set_enabled(false);
  }

  /// This thread's spans from a fresh snapshot (other tests' threads may
  /// have registered buffers; tests only spawn threads they join).
  static std::vector<obs::SpanRecord> my_spans() {
    const obs::TraceSnapshot snap = obs::snapshot();
    std::vector<obs::SpanRecord> all;
    for (const obs::ThreadTrace& t : snap.threads)
      all.insert(all.end(), t.spans.begin(), t.spans.end());
    return all;
  }
};

TEST_F(ObsTest, SpanNestingRecordsParentsAndOrder) {
  SKIP_IF_COMPILED_OUT();
  {
    PV_SPAN("outer");
    {
      PV_SPAN("mid");
      { PV_SPAN("inner"); }
    }
    { PV_SPAN("sibling"); }
  }
  const auto spans = my_spans();
  ASSERT_EQ(spans.size(), 4u);
  // Spans are recorded at entry, so parents precede children.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "mid");
  EXPECT_STREQ(spans[2].name, "inner");
  EXPECT_STREQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 0);
  for (const obs::SpanRecord& s : spans) {
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    if (s.parent >= 0) {
      EXPECT_GE(s.start_ns, spans[static_cast<std::size_t>(s.parent)].start_ns);
      EXPECT_LE(s.end_ns, spans[static_cast<std::size_t>(s.parent)].end_ns);
    }
  }
}

TEST_F(ObsTest, SnapshotClampsOpenSpans) {
  const std::size_t idx = obs::begin_span("open");
  const auto spans = my_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);  // clamped to "now", not 0
  obs::end_span(idx);
}

TEST_F(ObsTest, CountersAccumulateAcrossThreads) {
  SKIP_IF_COMPILED_OUT();
  constexpr int kThreads = 8;
  constexpr int kAdds = 1000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([] {
      for (int i = 0; i < kAdds; ++i) PV_COUNTER_ADD("test.mt_adds", 3);
    });
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(obs::counter("test.mt_adds").value(),
            static_cast<std::uint64_t>(kThreads) * kAdds * 3);
}

TEST_F(ObsTest, EachThreadGetsItsOwnSpanBuffer) {
  SKIP_IF_COMPILED_OUT();
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([] {
      PV_SPAN("worker.outer");
      PV_SPAN("worker.inner");
    });
  for (std::thread& th : pool) th.join();

  const obs::TraceSnapshot snap = obs::snapshot();
  int worker_threads = 0;
  for (const obs::ThreadTrace& t : snap.threads) {
    if (t.spans.empty() ||
        std::string(t.spans[0].name) != "worker.outer")
      continue;
    ++worker_threads;
    ASSERT_EQ(t.spans.size(), 2u);
    EXPECT_EQ(t.spans[1].parent, 0);  // nesting stays within the thread
  }
  EXPECT_EQ(worker_threads, kThreads);
}

TEST_F(ObsTest, GaugeSetOverwrites) {
  SKIP_IF_COMPILED_OUT();
  PV_COUNTER_SET("test.gauge", 7);
  PV_COUNTER_SET("test.gauge", 5);
  EXPECT_EQ(obs::counter("test.gauge").value(), 5u);
}

TEST_F(ObsTest, ResetClearsSpansAndZeroesCounters) {
  SKIP_IF_COMPILED_OUT();
  { PV_SPAN("gone"); }
  PV_COUNTER_ADD("test.reset_me", 42);
  obs::reset();
  EXPECT_TRUE(my_spans().empty());
  EXPECT_EQ(obs::counter("test.reset_me").value(), 0u);
}

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  obs::set_enabled(false);
  { PV_SPAN("invisible"); }
  PV_COUNTER_ADD("test.invisible", 99);
  obs::set_enabled(true);
  EXPECT_TRUE(my_spans().empty());
  const obs::TraceSnapshot snap = obs::snapshot();
  for (const auto& [name, value] : snap.counters)
    EXPECT_NE(name, "test.invisible");
}

TEST_F(ObsTest, SpanOpenedWhileEnabledClosesAfterDisable) {
  SKIP_IF_COMPILED_OUT();
  {
    PV_SPAN("toggled");
    obs::set_enabled(false);
  }  // Span captured enabled() at construction, so it must still close.
  obs::set_enabled(true);
  const auto spans = my_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GT(spans[0].end_ns, 0u);
}

TEST_F(ObsTest, ChromeTraceContainsSpansAndCounters) {
  SKIP_IF_COMPILED_OUT();
  {
    PV_SPAN("phase.a");
    { PV_SPAN("phase.b"); }
  }
  PV_COUNTER_ADD("test.bytes", 123);
  const std::string json = obs::to_chrome_trace(obs::snapshot());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"phase.a\""), std::string::npos);
  EXPECT_NE(json.find("\"phase.b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("test.bytes"), std::string::npos);
}

TEST_F(ObsTest, BenchReportJsonEscapesControlCharacters) {
  // A control character in any report string (title, config key or value,
  // metric name) must come out as a JSON escape, not as a raw byte that
  // makes the report unparseable.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pathview_bench_report_test";
  std::filesystem::create_directories(dir);
  ::setenv("PATHVIEW_BENCH_JSON", dir.c_str(), 1);
  {
    bench::Report r("title\twith\x01control", {"bench\n", "", ""});
    r.config("key\x1f", "value\x03");
    r.row("metric\x01name\r\n", 1.0, 1.0, 0.5);
    r.write_json("report.json");
  }
  ::unsetenv("PATHVIEW_BENCH_JSON");
  std::ifstream in(dir / "report.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(testutil::JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"metric\\u0001name\\r\\n\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"key\\u001f\": \"value\\u0003\""),
            std::string::npos)
      << json;
}

TEST_F(ObsTest, PhaseSummaryAggregatesByName) {
  SKIP_IF_COMPILED_OUT();
  for (int i = 0; i < 3; ++i) { PV_SPAN("phase.repeat"); }
  PV_COUNTER_ADD("test.summary_ctr", 17);
  const std::string text = obs::phase_summary(obs::snapshot());
  EXPECT_NE(text.find("phase.repeat"), std::string::npos);
  EXPECT_NE(text.find("test.summary_ctr"), std::string::npos);
  EXPECT_NE(text.find("17"), std::string::npos);
}

TEST_F(ObsTest, SelfProfileBuildsThreeOpenableViews) {
  SKIP_IF_COMPILED_OUT();
  {
    PV_SPAN("tool.run");
    {
      PV_SPAN("load");
      { PV_SPAN("parse"); }
    }
    { PV_SPAN("render"); }
  }
  const db::Experiment exp = obs::self_profile_experiment(obs::snapshot());
  EXPECT_EQ(exp.nranks(), 1u);
  EXPECT_GT(exp.cct().size(), 1u);

  const metrics::Attribution attr =
      metrics::attribute_metrics(exp.cct(), metrics::all_events());
  core::CctView cct_view(exp.cct(), attr);
  core::CallersView callers(exp.cct(), attr);
  core::FlatView flat(exp.cct(), attr);
  EXPECT_GT(cct_view.size(), 1u);
  EXPECT_GT(callers.size(), 1u);
  EXPECT_GT(flat.size(), 1u);

  // Inclusive cycles at the root must equal the sum over thread roots —
  // self times of all spans add back up to the covered wall time.
  const metrics::ColumnId incl = attr.cols.inclusive(model::Event::kCycles);
  EXPECT_GT(attr.table.get(incl, cct_view.node(cct_view.root()).origin),
            0.0);
}

TEST_F(ObsTest, SelfProfileMergesThreadsLikeRanks) {
  SKIP_IF_COMPILED_OUT();
  constexpr int kThreads = 3;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([] { PV_SPAN("parallel.phase"); });
  for (std::thread& th : pool) th.join();

  const db::Experiment exp = obs::self_profile_experiment(obs::snapshot());
  EXPECT_EQ(exp.nranks(), static_cast<std::uint32_t>(kThreads));
  // Identical per-thread call paths dedup into one canonical path.
  std::size_t frames = 0;
  for (prof::CctNodeId n = 0; n < exp.cct().size(); ++n)
    if (exp.cct().node(n).kind == prof::CctKind::kFrame) ++frames;
  EXPECT_EQ(frames, 1u);
}

TEST_F(ObsTest, SelfProfileRoundTripsThroughXmlAndBinary) {
  SKIP_IF_COMPILED_OUT();
  {
    PV_SPAN("root");
    { PV_SPAN("child"); }
    { PV_SPAN("child"); }
  }
  PV_COUNTER_ADD("test.rt", 1);
  const db::Experiment exp =
      obs::self_profile_experiment(obs::snapshot(), "rt-self");

  std::string why;
  const db::Experiment via_xml = db::from_xml(db::to_xml(exp));
  EXPECT_TRUE(db::Experiment::equivalent(exp, via_xml, &why)) << why;
  const db::Experiment via_bin = db::from_binary(db::to_binary(exp));
  EXPECT_TRUE(db::Experiment::equivalent(exp, via_bin, &why)) << why;
  EXPECT_EQ(via_xml.name(), "rt-self");
}

TEST_F(ObsTest, SelfProfileOnEmptySnapshotThrows) {
  obs::reset();
  EXPECT_THROW(obs::self_profile_experiment(obs::snapshot()),
               InvalidArgument);
}

TEST_F(ObsTest, ChromeTraceEscapesHostileNames) {
  SKIP_IF_COMPILED_OUT();
  // Span and counter names are caller-controlled; names full of JSON
  // metacharacters and control bytes must still yield a parseable document.
  static const char kHostile[] =
      "evil \"span\"\\ with\nnewline\ttab \x01\x1f and \x08\x0c\r bytes";
  {
    PV_SPAN(kHostile);
  }
  obs::counter("evil \"counter\"\\\n\x02{}[],:").add(7);

  const std::string json = obs::to_chrome_trace(obs::snapshot());
  EXPECT_TRUE(testutil::valid_json(json)) << json;
  // The name survived (escaped, not dropped or truncated).
  EXPECT_NE(json.find("evil \\\"span\\\""), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u0002"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\b"), std::string::npos);
  EXPECT_NE(json.find("\\f"), std::string::npos);
  // No raw control bytes leaked into the output.
  for (const char c : json)
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n');
}

TEST(ObsMacroTest, MacrosCompileInAnyConfiguration) {
  // In -DPATHVIEW_OBS_DISABLED builds the macros expand to no-ops; either
  // way this must compile and record nothing while disabled.
  obs::set_enabled(false);
  PV_SPAN("noop");
  PV_COUNTER_ADD("noop.ctr", 1);
  PV_COUNTER_SET("noop.gauge", 2);
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, HistogramSmallValuesAreExact) {
  // Values below one octave of sub-buckets land in their own bucket, so
  // 0..7 round-trip exactly through every percentile.
  obs::Histogram& h = obs::histogram("test.hist.exact");
  for (std::uint64_t v = 0; v < 8; ++v) h.add(v);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 8u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  for (std::uint64_t v = 0; v < 8; ++v)
    EXPECT_EQ(s.buckets[v], 1u) << "bucket " << v;
  EXPECT_EQ(s.value_at(0.0), 0u);   // rank clamps to the first sample
  EXPECT_EQ(s.value_at(0.5), 3u);   // ceil(0.5 * 8) = 4th sample = value 3
  EXPECT_EQ(s.value_at(1.0), 7u);
}

TEST_F(ObsTest, HistogramBucketIndexBoundsRoundTrip) {
  // Every probed value must fall at or below its bucket's upper bound and
  // strictly above the previous bucket's (the defining bucket invariant).
  for (const std::uint64_t v :
       {0ull, 1ull, 7ull, 8ull, 15ull, 16ull, 17ull, 1000ull, 123456ull,
        (1ull << 30), (1ull << 39), (1ull << 40) - 1}) {
    const std::size_t i = obs::Histogram::bucket_index(v);
    EXPECT_LE(v, obs::Histogram::bucket_upper_bound(i)) << v;
    if (i > 0)
      EXPECT_GT(v, obs::Histogram::bucket_upper_bound(i - 1)) << v;
  }
}

TEST_F(ObsTest, HistogramZeroAndOverflowEdges) {
  obs::Histogram& h = obs::histogram("test.hist.edges");
  h.add(0);
  // Beyond 2^40 everything lands in the overflow bucket, whose upper bound
  // (and thus any percentile resolving into it) saturates at uint64 max.
  h.add(1ull << 40);
  h.add(~0ull);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[obs::HistogramSnapshot::kNumBuckets - 1], 2u);
  EXPECT_EQ(s.value_at(0.01), 0u);
  EXPECT_EQ(s.value_at(1.0), ~0ull);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(
                obs::HistogramSnapshot::kNumBuckets - 1),
            ~0ull);
}

TEST_F(ObsTest, HistogramPercentilesBoundedByBucketWidth) {
  // Percentiles come back as bucket upper bounds: exact-ish (within one
  // sub-bucket, 1/8 relative width) rather than exact for large values.
  obs::Histogram& h = obs::histogram("test.hist.pct");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  const std::uint64_t p50 = s.value_at(0.50);
  const std::uint64_t p99 = s.value_at(0.99);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 500u + 500u / 8 + 1);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 990u + 990u / 8 + 1);
  EXPECT_NEAR(s.mean(), 500.5, 0.001);
}

TEST_F(ObsTest, HistogramMergeAccumulates) {
  obs::Histogram& a = obs::histogram("test.hist.merge.a");
  obs::Histogram& b = obs::histogram("test.hist.merge.b");
  for (int i = 0; i < 10; ++i) a.add(5);
  for (int i = 0; i < 30; ++i) b.add(500);
  obs::HistogramSnapshot s = a.snapshot();
  s.merge(b.snapshot());
  EXPECT_EQ(s.count, 40u);
  EXPECT_EQ(s.sum, 10u * 5 + 30u * 500);
  EXPECT_EQ(s.value_at(0.25), 5u);   // the a-side quartile
  EXPECT_GE(s.value_at(0.9), 500u);  // the b-side tail
}

TEST_F(ObsTest, HistogramConcurrentAddVsSnapshot) {
  // Adds race snapshots by design (relaxed atomics); under TSan this test
  // proves the hot path is data-race-free, and afterwards no sample may
  // have been lost or double-counted.
  obs::Histogram& h = obs::histogram("test.hist.race");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAdds = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kAdds; ++i) h.add(i % 1000);
    });
  go.store(true, std::memory_order_release);
  std::uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    const obs::HistogramSnapshot s = h.snapshot();
    EXPECT_GE(s.count, last_count);  // monotone under concurrent adds
    last_count = s.count;
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(h.snapshot().count, kThreads * kAdds);
}

TEST_F(ObsTest, ResetZeroesHistograms) {
  obs::Histogram& h = obs::histogram("test.hist.reset");
  h.add(42);
  obs::reset();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
}

TEST_F(ObsTest, LabeledBuildsCanonicalKeys) {
  EXPECT_EQ(obs::labeled("m", {{"op", "expand"}}), "m{op=\"expand\"}");
  EXPECT_EQ(obs::labeled("m", {{"a", "1"}, {"b", "2"}}),
            "m{a=\"1\",b=\"2\"}");
  // Hostile label values must stay inside the quotes.
  EXPECT_EQ(obs::labeled("m", {{"k", "a\"b\\c\nd"}}),
            "m{k=\"a\\\"b\\\\c\\nd\"}");
  // Same labels -> same key -> same registry slot.
  obs::counter(obs::labeled("test.labeled", {{"op", "x"}})).add(2);
  obs::counter(obs::labeled("test.labeled", {{"op", "x"}})).add(3);
  EXPECT_EQ(obs::counter("test.labeled{op=\"x\"}").value(), 5u);
}

// ---------------------------------------------------------------------------
// Trace ids and span clamping.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SnapshotClampsNestedOpenSpansOnceEach) {
  // A snapshot taken while a parent AND child span are still open must
  // clamp each of them exactly once, to the SAME "now" — otherwise the
  // child could appear to outlive its parent, and repeated snapshots
  // would accumulate drift into the live records.
  const std::size_t parent = obs::begin_span("open.parent");
  const std::size_t child = obs::begin_span("open.child");
  const auto s1 = my_spans();
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s1[0].end_ns, s1[1].end_ns);  // one clamp timestamp for both
  EXPECT_GE(s1[0].end_ns, s1[0].start_ns);
  EXPECT_GE(s1[1].end_ns, s1[1].start_ns);

  // A later snapshot re-clamps fresh copies; the live records were not
  // mutated by the first snapshot.
  const auto s2 = my_spans();
  EXPECT_EQ(s2[0].end_ns, s2[1].end_ns);
  EXPECT_GE(s2[0].end_ns, s1[0].end_ns);

  obs::end_span(child);
  obs::end_span(parent);
  const auto closed = my_spans();
  EXPECT_LE(closed[1].end_ns, closed[0].end_ns);  // child within parent
}

TEST_F(ObsTest, TraceIdScopeStampsSpansAndRestores) {
  SKIP_IF_COMPILED_OUT();
  {
    obs::TraceIdScope outer(111);
    { PV_SPAN("traced.outer"); }
    {
      obs::TraceIdScope inner(222);
      { PV_SPAN("traced.inner"); }
    }
    { PV_SPAN("traced.restored"); }
  }
  { PV_SPAN("traced.cleared"); }
  const auto spans = my_spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].trace_id, 111u);
  EXPECT_EQ(spans[1].trace_id, 222u);
  EXPECT_EQ(spans[2].trace_id, 111u);  // inner scope restored outer's id
  EXPECT_EQ(spans[3].trace_id, 0u);    // outer scope restored "none"
}

TEST_F(ObsTest, ChromeTraceCarriesMetadataAndFlows) {
  SKIP_IF_COMPILED_OUT();
  {
    obs::TraceIdScope trace(777);
    { PV_SPAN("req.a"); }
    { PV_SPAN("req.b"); }
  }
  { PV_SPAN("untraced"); }
  const std::string json = obs::to_chrome_trace(obs::snapshot());
  EXPECT_TRUE(testutil::valid_json(json)) << json;
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Two spans under trace 777: a flow start and a flow finish bind them.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":777"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceSkipsSinglePointFlows) {
  SKIP_IF_COMPILED_OUT();
  {
    obs::TraceIdScope trace(42);
    { PV_SPAN("lone"); }
  }
  const std::string json = obs::to_chrome_trace(obs::snapshot());
  // One span under the id: stamping args is fine, a dangling flow is not.
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, PrometheusExposesCountersGaugesAndLabels) {
  obs::counter("test.prom.requests.total").add(7);
  obs::counter("test.prom.queue.depth").set(3);
  obs::counter(obs::labeled("test.prom.ops.total", {{"op", "expand"}}))
      .add(2);
  obs::counter(obs::labeled("test.prom.ops.total", {{"op", "sort"}})).add(1);
  const std::string text = obs::to_prometheus(obs::snapshot());
  EXPECT_NE(text.find("# TYPE pathview_test_prom_requests_total counter\n"
                      "pathview_test_prom_requests_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pathview_test_prom_queue_depth gauge\n"
                      "pathview_test_prom_queue_depth 3\n"),
            std::string::npos);
  // Labeled series share one family and one TYPE line.
  const std::size_t type_at =
      text.find("# TYPE pathview_test_prom_ops_total counter");
  ASSERT_NE(type_at, std::string::npos);
  EXPECT_EQ(text.find("# TYPE pathview_test_prom_ops_total", type_at + 1),
            std::string::npos);
  EXPECT_NE(text.find("pathview_test_prom_ops_total{op=\"expand\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pathview_test_prom_ops_total{op=\"sort\"} 1"),
            std::string::npos);
}

TEST_F(ObsTest, PrometheusHistogramBucketsAreCumulative) {
  obs::Histogram& h = obs::histogram("test.prom.latency.us");
  h.add(1);
  h.add(1);
  h.add(100);
  const std::string text = obs::to_prometheus(obs::snapshot());
  EXPECT_NE(text.find("# TYPE pathview_test_prom_latency_us histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pathview_test_prom_latency_us_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pathview_test_prom_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("pathview_test_prom_latency_us_sum 102"),
            std::string::npos);
  EXPECT_NE(text.find("pathview_test_prom_latency_us_count 3"),
            std::string::npos);
  // Exactly one +Inf line for THIS series (other histograms may be
  // registered when the whole binary runs in one process).
  const std::string inf_line =
      "pathview_test_prom_latency_us_bucket{le=\"+Inf\"}";
  const std::size_t inf_at = text.find(inf_line);
  ASSERT_NE(inf_at, std::string::npos);
  EXPECT_EQ(text.find(inf_line, inf_at + 1), std::string::npos);
}

// ---------------------------------------------------------------------------
// The structured event log.
// ---------------------------------------------------------------------------

TEST(EventLogTest, FormatsTextAndJsonLines) {
  obs::LogEvent ev;
  ev.level = "warn";
  ev.op = "expand";
  ev.trace_id = 99;
  ev.latency_us = 1234;
  ev.outcome = "ok";
  ev.message = "slow \"request\"\nwith newline";
  const std::string json =
      obs::EventLog::format_line(ev, obs::LogFormat::kJson, 1700000000000);
  EXPECT_EQ(json,
            "{\"ts\":1700000000000,\"level\":\"warn\",\"op\":\"expand\","
            "\"trace_id\":99,\"latency_us\":1234,\"outcome\":\"ok\","
            "\"message\":\"slow \\\"request\\\"\\nwith newline\"}");
  const std::string text =
      obs::EventLog::format_line(ev, obs::LogFormat::kText, 1700000000000);
  EXPECT_NE(text.find("level=warn"), std::string::npos);
  EXPECT_NE(text.find("op=expand"), std::string::npos);
  EXPECT_NE(text.find("trace_id=99"), std::string::npos);
  EXPECT_NE(text.find("latency_us=1234"), std::string::npos);
  // One event, one line: embedded newlines must not split the record (the
  // writer adds the terminator, format_line never embeds one).
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 0);
}

TEST(EventLogTest, WritesLinesToFileNonBlocking) {
  const std::string path = ::testing::TempDir() + "/obs_eventlog_test.log";
  std::remove(path.c_str());
  {
    obs::EventLog::Options opts;
    opts.format = obs::LogFormat::kJson;
    opts.path = path;
    obs::EventLog log(opts);
    for (int i = 0; i < 20; ++i) {
      obs::LogEvent ev;
      ev.op = "ping";
      ev.trace_id = static_cast<std::uint64_t>(i);
      log.log(std::move(ev));
    }
    log.flush();
    EXPECT_EQ(log.dropped(), 0u);
  }  // destructor joins the writer and closes the sink
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 20);
  EXPECT_NE(content.find("\"trace_id\":19"), std::string::npos);
  EXPECT_TRUE(testutil::valid_json(
      content.substr(0, content.find('\n'))));
}

TEST(EventLogTest, DropsWhenQueueIsFullInsteadOfBlocking) {
  // A zero-capacity queue forces the drop path deterministically: every
  // log() finds the queue "full" whenever the writer isn't mid-drain.
  obs::EventLog::Options opts;
  opts.format = obs::LogFormat::kText;
  opts.path = ::testing::TempDir() + "/obs_eventlog_drop.log";
  opts.capacity = 1;
  obs::EventLog log(opts);
  // Bursts of log() calls race a 1-slot queue; retry bursts until the
  // producer outpaces the writer at least once (first burst in practice).
  const std::uint64_t ctr_before = obs::counter("log.dropped.total").value();
  for (int round = 0; round < 100 && log.dropped() == 0; ++round)
    for (int i = 0; i < 2000; ++i) {
      obs::LogEvent ev;
      ev.op = "spam";
      log.log(std::move(ev));
    }
  log.flush();
  EXPECT_GT(log.dropped(), 0u);
  // Every drop also ticks the registry counter, which the Prometheus
  // exporter surfaces as pathview_log_dropped_total.
  EXPECT_EQ(obs::counter("log.dropped.total").value() - ctr_before,
            log.dropped());
}

// ---------------------------------------------------------------------------
// Live span stacks (the continuous profiler's publication side).
// ---------------------------------------------------------------------------

/// RAII live-sampling reference so a test failure can't leak the mode bit.
struct LiveScope {
  LiveScope() { obs::acquire_live_sampling(); }
  ~LiveScope() { obs::release_live_sampling(); }
};

TEST_F(ObsTest, LiveStackPublishesOpenSpans) {
  SKIP_IF_COMPILED_OUT();
  LiveScope live;
  PV_SPAN("live_outer");
  {
    PV_SPAN("live_inner");
    const obs::LiveStackWalk walk = obs::sample_live_stacks();
    bool found = false;
    for (const obs::LiveThreadSample& s : walk.samples) {
      if (s.frames.size() < 2 ||
          std::string_view(s.frames.back()) != "live_inner")
        continue;
      // Frames are outermost-first; depth is the true logical depth.
      EXPECT_EQ(std::string_view(s.frames[s.frames.size() - 2]),
                "live_outer");
      EXPECT_EQ(s.depth, s.frames.size());
      found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(ObsTest, LiveStackCarriesTraceId) {
  SKIP_IF_COMPILED_OUT();
  LiveScope live;
  obs::TraceIdScope trace(42);
  PV_SPAN("traced_live_span");
  const obs::LiveStackWalk walk = obs::sample_live_stacks();
  bool found = false;
  for (const obs::LiveThreadSample& s : walk.samples)
    if (!s.frames.empty() &&
        std::string_view(s.frames.back()) == "traced_live_span") {
      EXPECT_EQ(s.trace_id, 42u);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, LiveStackNotPublishedWhenSamplingOff) {
  SKIP_IF_COMPILED_OUT();
  ASSERT_FALSE(obs::live_sampling_enabled());
  PV_SPAN("never_published");
  const obs::LiveStackWalk walk = obs::sample_live_stacks();
  for (const obs::LiveThreadSample& s : walk.samples)
    for (const char* f : s.frames)
      EXPECT_NE(std::string_view(f), "never_published");
}

TEST_F(ObsTest, LiveStackReportsTruncationOnDeepStacks) {
  SKIP_IF_COMPILED_OUT();
  LiveScope live;
  constexpr int kDepth = static_cast<int>(obs::kMaxLiveDepth) + 12;
  std::function<void(int)> rec = [&rec](int left) {
    PV_SPAN("deep_frame");
    if (left > 1) {
      rec(left - 1);
      return;
    }
    const obs::LiveStackWalk walk = obs::sample_live_stacks();
    EXPECT_GE(walk.truncated, 1u);
    bool found = false;
    for (const obs::LiveThreadSample& s : walk.samples)
      if (s.depth >= static_cast<std::uint32_t>(kDepth)) {
        // Only the outermost kMaxLiveDepth frames are published.
        EXPECT_EQ(s.frames.size(),
                  static_cast<std::size_t>(obs::kMaxLiveDepth));
        found = true;
      }
    EXPECT_TRUE(found);
  };
  rec(kDepth);
}

// ---------------------------------------------------------------------------
// The continuous profiler (obs/sampler.hpp).
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ProfilerTickFoldsLiveStacksIntoHotPaths) {
  SKIP_IF_COMPILED_OUT();
  obs::ContinuousProfiler::Options popts;
  popts.hz = 0;  // no background thread; the test ticks by hand
  obs::ContinuousProfiler prof(popts);
  PV_SPAN("fold_outer");
  {
    PV_SPAN("fold_inner");
    prof.tick_once();
    prof.tick_once();
  }
  prof.tick_once();
  const obs::ContinuousProfiler::Report rep = prof.report();
  EXPECT_EQ(rep.ticks, 3u);
  EXPECT_EQ(rep.samples, 3u);
  EXPECT_EQ(rep.traced, 0u);
  ASSERT_GE(rep.hot.size(), 2u);
  // Hottest exact path first: two samples landed with fold_inner innermost.
  EXPECT_EQ(rep.hot[0].path, "fold_outer/fold_inner");
  EXPECT_EQ(rep.hot[0].samples, 2u);
  EXPECT_EQ(rep.hot[1].path, "fold_outer");
  EXPECT_EQ(rep.hot[1].samples, 1u);
}

TEST_F(ObsTest, ProfilerAttributesTracedSamples) {
  SKIP_IF_COMPILED_OUT();
  obs::ContinuousProfiler::Options popts;
  popts.hz = 0;
  obs::ContinuousProfiler prof(popts);
  obs::TraceIdScope trace(7);
  PV_SPAN("traced_fold");
  prof.tick_once();
  const obs::ContinuousProfiler::Report rep = prof.report();
  EXPECT_EQ(rep.samples, 1u);
  EXPECT_EQ(rep.traced, 1u);
  ASSERT_EQ(rep.hot.size(), 1u);
  EXPECT_EQ(rep.hot[0].traced, 1u);
}

TEST_F(ObsTest, ProfilerWritesWindowsToRetentionRing) {
  SKIP_IF_COMPILED_OUT();
  const std::string dir = ::testing::TempDir() + "/obs_prof_ring";
  std::filesystem::remove_all(dir);
  obs::ContinuousProfiler::Options popts;
  popts.hz = 0;
  popts.dir = dir;
  popts.retain = 2;
  popts.name = "ring-test";
  obs::ContinuousProfiler prof(popts);
  PV_SPAN("window_span");
  for (int w = 0; w < 3; ++w) {
    prof.tick_once();
    prof.rotate_now();
  }
  const std::vector<obs::WindowInfo> wins = prof.windows();
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(wins[0].seq, 2u);
  EXPECT_EQ(wins[1].seq, 3u);
  EXPECT_EQ(prof.report().windows_written, 3u);
  // The oldest file fell off the ring; the survivors are clean, openable
  // experiment databases.
  EXPECT_FALSE(std::filesystem::exists(dir + "/window-000001.pvdb"));
  for (const obs::WindowInfo& w : wins) {
    EXPECT_TRUE(std::filesystem::exists(w.path));
    EXPECT_GT(w.bytes, 0u);
    EXPECT_EQ(w.samples, 1u);
    const db::Experiment exp = db::load_binary(w.path);
    EXPECT_FALSE(exp.degraded());
  }
  EXPECT_EQ(db::load_binary(wins[1].path).name(), "ring-test-window-3");
}

TEST_F(ObsTest, ProfilerSkipsEmptyWindows) {
  SKIP_IF_COMPILED_OUT();
  const std::string dir = ::testing::TempDir() + "/obs_prof_empty";
  std::filesystem::remove_all(dir);
  obs::ContinuousProfiler::Options popts;
  popts.hz = 0;
  popts.dir = dir;
  obs::ContinuousProfiler prof(popts);
  prof.rotate_now();
  prof.rotate_now();
  EXPECT_TRUE(prof.windows().empty());
  EXPECT_EQ(prof.report().windows_written, 0u);
  // Sequence numbers are not burned on empty windows.
  PV_SPAN("late_span");
  prof.tick_once();
  prof.rotate_now();
  const std::vector<obs::WindowInfo> wins = prof.windows();
  ASSERT_EQ(wins.size(), 1u);
  EXPECT_EQ(wins[0].seq, 1u);
}

// The TSan target of the suite: concurrent span churn on several threads
// races the background sampler, manual walks, and constant window rotation.
// Every observed stack must be well-formed (no torn reads surfacing as
// frames, no out-of-range depths) and the lifetime aggregates monotone.
TEST_F(ObsTest, ProfilerSurvivesConcurrentSpanChurn) {
  SKIP_IF_COMPILED_OUT();
  const std::string dir = ::testing::TempDir() + "/obs_prof_hammer";
  std::filesystem::remove_all(dir);
  obs::ContinuousProfiler::Options popts;
  popts.hz = 2000.0;     // ~0.5 ms period: far hotter than production
  popts.interval_ms = 5; // rotate (and write) constantly
  popts.dir = dir;
  popts.retain = 3;
  popts.name = "hammer";
  obs::ContinuousProfiler prof(popts);
  prof.start();
  ASSERT_TRUE(prof.running());

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&stop, t] {
      // Half the workers carry a trace id, half sample as background.
      obs::TraceIdScope trace(t % 2 == 0 ? 0u
                                         : static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        PV_SPAN("hammer_a");
        {
          PV_SPAN("hammer_b");
          { PV_SPAN("hammer_c"); }
        }
        { PV_SPAN("hammer_d"); }
      }
    });

  // Violations are collected, not asserted inline: an early return here
  // would destroy joinable worker threads. Note the walk can also observe
  // the sampler thread itself (its window writes publish db.* spans), so
  // frame-name checks apply only to stacks rooted in a worker's hammer_a.
  std::vector<std::string> violations;
  std::uint64_t prev_samples = 0;
  std::uint64_t prev_ticks = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int i = 0; i < 200; ++i) {
    const obs::LiveStackWalk walk = obs::sample_live_stacks();
    for (const obs::LiveThreadSample& s : walk.samples) {
      if (s.depth == 0) violations.push_back("sample with zero depth");
      if (s.frames.size() > static_cast<std::size_t>(s.depth))
        violations.push_back("more frames than logical depth");
      bool null_frame = false;
      for (const char* f : s.frames)
        if (f == nullptr) null_frame = true;
      if (null_frame) {
        violations.push_back("null frame pointer");
        continue;
      }
      if (s.frames.empty() ||
          std::string_view(s.frames.front()) != "hammer_a")
        continue;  // another thread (e.g. the sampler writing a window)
      for (const char* f : s.frames) {
        const std::string_view name(f);
        if (name != "hammer_a" && name != "hammer_b" && name != "hammer_c" &&
            name != "hammer_d")
          violations.push_back("torn stack surfaced frame: " +
                               std::string(name));
      }
    }
    const obs::ContinuousProfiler::Report rep = prof.report();
    if (rep.samples < prev_samples)
      violations.push_back("sample count went backwards");
    if (rep.ticks < prev_ticks) violations.push_back("tick count went back");
    prev_samples = rep.samples;
    prev_ticks = rep.ticks;
    // Keep hammering until the sampler provably saw traced + untraced work.
    if (i >= 100 && rep.samples >= 20 && rep.traced >= 1 &&
        rep.windows_written >= 1)
      break;
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop.store(true);
  for (std::thread& w : workers) w.join();
  prof.stop();
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violation(s), first: " << violations.front();

  const obs::ContinuousProfiler::Report rep = prof.report(100);
  EXPECT_GT(rep.ticks, 0u);
  EXPECT_GE(rep.samples, 20u);
  EXPECT_GE(rep.traced, 1u);
  EXPECT_GE(rep.windows_written, 1u);
  EXPECT_EQ(rep.write_errors, 0u);
  for (const obs::HotPath& h : rep.hot)
    EXPECT_EQ(h.path.rfind("hammer_a", 0), 0u) << h.path;
  // The ring never outgrows its retention bound.
  EXPECT_LE(prof.windows().size(), 3u);
  // The newest window is a clean experiment.
  const std::vector<obs::WindowInfo> wins = prof.windows();
  ASSERT_FALSE(wins.empty());
  EXPECT_FALSE(db::load_binary(wins.back().path).degraded());
}

// ---------------------------------------------------------------------------
// The flight recorder (slow-request capture).
// ---------------------------------------------------------------------------

TEST_F(ObsTest, FlightRecorderCapturesSpansEvenWhenRecordingDisabled) {
  SKIP_IF_COMPILED_OUT();
  obs::set_enabled(false);  // flight capture is independent of enabled()
  obs::FlightRecorder fr;
  EXPECT_TRUE(fr.armed());
  {
    PV_SPAN("flight_outer");
    obs::flight_note("checkpoint");
    { PV_SPAN("flight_child"); }
    { PV_SPAN("flight_sibling"); }
  }
  const std::vector<obs::FlightSpan> spans = fr.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "flight_outer");
  EXPECT_STREQ(spans[1].name, "flight_child");
  EXPECT_STREQ(spans[2].name, "flight_sibling");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  for (const obs::FlightSpan& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
  ASSERT_EQ(fr.notes().size(), 1u);
  EXPECT_EQ(fr.notes()[0], "checkpoint");
  EXPECT_FALSE(fr.overflowed());
  // Nothing leaked into the regular span recorder.
  EXPECT_TRUE(my_spans().empty());
}

TEST_F(ObsTest, FlightRecorderOverflowsGracefullyAndNestsInert) {
  SKIP_IF_COMPILED_OUT();
  obs::FlightRecorder fr(2);
  { PV_SPAN("f1"); }
  { PV_SPAN("f2"); }
  { PV_SPAN("f3"); }
  EXPECT_TRUE(fr.overflowed());
  EXPECT_EQ(fr.spans().size(), 2u);
  {
    // A second recorder on an already-armed thread is an inert shell: the
    // outer capture keeps going, the inner observes nothing.
    obs::FlightRecorder inner;
    EXPECT_FALSE(inner.armed());
    { PV_SPAN("f4"); }
    EXPECT_TRUE(inner.spans().empty());
  }
  EXPECT_TRUE(fr.armed());
}

}  // namespace
}  // namespace pathview
