// Tests for the time-centric trace subsystem: the trace.pvt binary format
// (round trip, segmentation, indexed seeks, corruption recovery), capture
// determinism through the simulation engine, and trace-to-CCT resolution.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pathview/db/trace.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/prof/trace_resolve.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/registry.hpp"

namespace pathview {
namespace {

using sim::TraceEvent;

class TraceDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs these cases as parallel processes, and a
    // shared scratch directory would be remove_all'd under a sibling's feet.
    dir_ = std::string("/tmp/pathview_trace_test_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string read_file(const std::string& p) const {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_file(const std::string& p, const std::string& bytes) const {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// A deterministic pseudo-random but time-monotone event stream.
  static std::vector<TraceEvent> make_events(std::size_t n,
                                             std::uint64_t seed) {
    std::vector<TraceEvent> evs;
    evs.reserve(n);
    std::uint64_t t = 0, x = seed * 2654435761u + 1;
    for (std::size_t i = 0; i < n; ++i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      t += x % 97;  // repeated times are legal
      evs.push_back({t, static_cast<std::uint32_t>(x % 1000),
                     static_cast<model::Addr>(x % 100000)});
    }
    return evs;
  }

  static void write_events(const std::string& p,
                           const std::vector<TraceEvent>& evs,
                           std::uint32_t rank, db::TraceWriterOptions opts) {
    db::TraceWriter w(p, rank, opts);
    for (const auto& e : evs) w.append(e);
    w.close();
  }

  std::string dir_;
};

TEST_F(TraceDirTest, RoundTripIsLossless) {
  const auto evs = make_events(5000, 1);
  const std::string p = path("a.pvt");
  write_events(p, evs, 3, {.segment_records = 256, .with_leaf = true});

  db::TraceReader r(p);
  EXPECT_EQ(r.rank(), 3u);
  EXPECT_TRUE(r.with_leaf());
  EXPECT_FALSE(r.recovered());
  EXPECT_EQ(r.size(), evs.size());
  EXPECT_EQ(r.t_begin(), evs.front().time);
  EXPECT_EQ(r.t_end(), evs.back().time);
  EXPECT_EQ(r.read_all(), evs);
}

TEST_F(TraceDirTest, WithoutLeafDropsLeafAddresses) {
  auto evs = make_events(100, 2);
  const std::string p = path("noleaf.pvt");
  write_events(p, evs, 0, {.segment_records = 16, .with_leaf = false});
  db::TraceReader r(p);
  EXPECT_FALSE(r.with_leaf());
  const auto back = r.read_all();
  ASSERT_EQ(back.size(), evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(back[i].time, evs[i].time);
    EXPECT_EQ(back[i].node, evs[i].node);
    EXPECT_EQ(back[i].leaf, 0u);
  }
}

TEST_F(TraceDirTest, WritesAreByteDeterministic) {
  const auto evs = make_events(3000, 3);
  write_events(path("x.pvt"), evs, 1, {.segment_records = 100, .with_leaf = true});
  write_events(path("y.pvt"), evs, 1, {.segment_records = 100, .with_leaf = true});
  EXPECT_EQ(read_file(path("x.pvt")), read_file(path("y.pvt")));
}

TEST_F(TraceDirTest, SegmentationMatchesIndex) {
  const auto evs = make_events(1000, 4);
  const std::string p = path("seg.pvt");
  write_events(p, evs, 0, {.segment_records = 64, .with_leaf = true});
  db::TraceReader r(p);
  ASSERT_EQ(r.segments().size(), (1000 + 63) / 64);
  std::size_t off = 0;
  std::vector<TraceEvent> seg;
  for (std::size_t i = 0; i < r.segments().size(); ++i) {
    r.read_segment(i, seg);
    ASSERT_EQ(seg.size(), r.segments()[i].count);
    EXPECT_EQ(seg.front().time, r.segments()[i].t_first);
    EXPECT_EQ(seg.back().time, r.segments()[i].t_last);
    for (const auto& e : seg) EXPECT_EQ(e, evs[off++]);
  }
  EXPECT_EQ(off, evs.size());
}

TEST_F(TraceDirTest, SampleAtMatchesBruteForce) {
  const auto evs = make_events(800, 5);
  const std::string p = path("s.pvt");
  write_events(p, evs, 0, {.segment_records = 32, .with_leaf = true});
  db::TraceReader r(p);

  EXPECT_FALSE(r.sample_at(evs.front().time - 1).has_value());
  EXPECT_EQ(r.sample_at(r.t_end() + 1000)->time, evs.back().time);

  for (std::uint64_t t = evs.front().time; t <= evs.back().time;
       t += (evs.back().time - evs.front().time) / 301 + 1) {
    const TraceEvent* expect = nullptr;
    for (const auto& e : evs)
      if (e.time <= t) expect = &e;
    const auto got = r.sample_at(t);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->time, expect->time);
  }
}

TEST_F(TraceDirTest, RangeQueriesMatchBruteForce) {
  const auto evs = make_events(600, 6);
  const std::string p = path("q.pvt");
  write_events(p, evs, 0, {.segment_records = 50, .with_leaf = true});
  db::TraceReader r(p);

  const std::uint64_t lo = evs.front().time, hi = evs.back().time;
  const std::uint64_t windows[][2] = {{lo, hi},
                                      {lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3},
                                      {0, lo - 1},
                                      {hi + 1, hi + 100},
                                      {lo + 7, lo + 7}};
  for (const auto& wdw : windows) {
    std::uint64_t expect = 0;
    for (const auto& e : evs)
      if (e.time >= wdw[0] && e.time <= wdw[1]) ++expect;
    EXPECT_EQ(r.count_in(wdw[0], wdw[1]), expect);
    std::uint64_t seen = 0;
    r.for_each_in(wdw[0], wdw[1], [&](const TraceEvent& e) {
      EXPECT_GE(e.time, wdw[0]);
      EXPECT_LE(e.time, wdw[1]);
      ++seen;
    });
    EXPECT_EQ(seen, expect);
  }
}

TEST_F(TraceDirTest, EmptyTraceRoundTrips) {
  const std::string p = path("empty.pvt");
  write_events(p, {}, 9, {});
  db::TraceReader r(p);
  EXPECT_EQ(r.rank(), 9u);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.t_begin(), 0u);
  EXPECT_FALSE(r.sample_at(123).has_value());
  EXPECT_EQ(r.count_in(0, ~0ULL), 0u);
}

TEST_F(TraceDirTest, OutOfOrderAppendThrows) {
  db::TraceWriter w(path("ooo.pvt"), 0);
  w.append({100, 1, 0});
  EXPECT_THROW(w.append({99, 1, 0}), InvalidArgument);
}

TEST_F(TraceDirTest, RejectsBadMagicAndFutureVersion) {
  write_file(path("junk.pvt"), "this is not a trace file at all");
  EXPECT_THROW(db::TraceReader{path("junk.pvt")}, ParseError);

  std::string bytes = read_file([&] {
    const std::string p = path("ok.pvt");
    write_events(p, make_events(10, 7), 0, {});
    return p;
  }());
  bytes[4] = '9';  // PVTR9: a future format version
  write_file(path("v9.pvt"), bytes);
  try {
    db::TraceReader r(path("v9.pvt"));
    FAIL() << "future version accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(TraceDirTest, RecoversFromTruncation) {
  const auto evs = make_events(1000, 8);
  const std::string p = path("t.pvt");
  write_events(p, evs, 2, {.segment_records = 100, .with_leaf = true});
  const std::string bytes = read_file(p);

  // Chop mid-way through the file: the footer and the tail segment are gone.
  const std::string cut = path("cut.pvt");
  write_file(cut, bytes.substr(0, bytes.size() / 2));
  db::TraceReader r(cut);
  EXPECT_TRUE(r.recovered());
  EXPECT_EQ(r.rank(), 2u);
  EXPECT_GT(r.size(), 0u);
  EXPECT_LT(r.size(), evs.size());
  // Whatever survived decodes exactly, as a prefix of the original stream.
  const auto back = r.read_all();
  for (std::size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], evs[i]);
}

TEST_F(TraceDirTest, RecoversFromDamagedFooter) {
  const auto evs = make_events(500, 9);
  const std::string p = path("f.pvt");
  write_events(p, evs, 0, {.segment_records = 64, .with_leaf = true});
  std::string bytes = read_file(p);
  // Scribble over the footer (the trailer magic stays, the index is garbage).
  for (std::size_t i = bytes.size() - 30; i < bytes.size() - 10; ++i)
    bytes[i] ^= 0x5a;
  write_file(path("fbad.pvt"), bytes);
  db::TraceReader r(path("fbad.pvt"));
  EXPECT_TRUE(r.recovered());
  EXPECT_EQ(r.read_all(), evs);  // data segments were untouched
}

TEST_F(TraceDirTest, PathHelpersFollowTheLayout) {
  EXPECT_EQ(db::trace_path("/x", 7), "/x/trace-00007.pvt");
  EXPECT_EQ(db::raw_trace_path("/x", 12345), "/x/rank-12345.pvtr");
  EXPECT_EQ(db::trace_dir_for("/out/exp.pvdb"), "/out/exp.pvdb.trace");
}

TEST_F(TraceDirTest, OpenTracesLoadsAllRanksInOrder) {
  for (std::uint32_t r = 0; r < 3; ++r)
    write_events(db::trace_path(dir_, r), make_events(20 + r, r), r, {});
  const auto traces = db::open_traces(dir_);
  ASSERT_EQ(traces.size(), 3u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(traces[r]->rank(), r);
    EXPECT_EQ(traces[r]->size(), 20u + r);
  }
  std::filesystem::remove(db::trace_path(dir_, 0));
  EXPECT_THROW(db::open_traces(dir_), InvalidArgument);
}

// --- capture + resolution ----------------------------------------------------

std::vector<sim::VectorTraceSink> capture(const workloads::Workload& w,
                                          std::uint32_t nranks,
                                          std::uint32_t nthreads,
                                          std::vector<sim::RawProfile>* raws) {
  std::vector<sim::VectorTraceSink> sinks(nranks);
  *raws = workloads::profile_workload(
      w, nranks, nthreads, [&sinks](std::uint32_t rank, std::uint32_t) {
        return static_cast<sim::TraceSink*>(&sinks[rank]);
      });
  return sinks;
}

TEST(TraceCapture, IsDeterministicAcrossThreadCounts) {
  workloads::Workload w = workloads::make_workload("subsurface", 4, 42);
  std::vector<sim::RawProfile> raws1, raws4;
  const auto s1 = capture(w, 4, 1, &raws1);
  const auto s4 = capture(w, 4, 4, &raws4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    ASSERT_FALSE(s1[r].events.empty());
    EXPECT_EQ(s1[r].events, s4[r].events) << "rank " << r;
  }
}

TEST(TraceCapture, TimesAreMonotoneAndResolveOntoMergedCct) {
  std::vector<sim::RawProfile> raws;
  workloads::Workload w = workloads::make_workload("subsurface", 2, 42);
  const auto sinks = capture(w, 2, 2, &raws);

  const prof::CanonicalCct merged = prof::Pipeline().run(raws, *w.tree);
  const prof::TraceResolver resolver(merged);
  for (std::uint32_t r = 0; r < 2; ++r) {
    auto map = resolver.map_rank(raws[r]);
    std::uint64_t prev = 0;
    for (const auto& ev : sinks[r].events) {
      EXPECT_GE(ev.time, prev);
      prev = ev.time;
      const prof::CctNodeId id = map.resolve(ev);
      ASSERT_NE(id, prof::kCctNull);
      ASSERT_LT(id, merged.size());
      EXPECT_EQ(merged.node(id).kind, prof::CctKind::kStmt);
    }
  }
}

TEST(TraceCapture, ResolverRejectsForeignRecords) {
  std::vector<sim::RawProfile> raws;
  workloads::Workload w = workloads::make_workload("subsurface", 1, 42);
  const auto sinks = capture(w, 1, 1, &raws);
  const prof::CanonicalCct merged = prof::Pipeline().run(raws, *w.tree);
  const prof::TraceResolver resolver(merged);
  auto map = resolver.map_rank(raws[0]);
  sim::TraceEvent bogus = sinks[0].events.front();
  bogus.node = 0xffffff;  // not a trie node of this rank
  EXPECT_THROW(map.resolve(bogus), InvalidArgument);
}

}  // namespace
}  // namespace pathview
