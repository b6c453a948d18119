// Tests for the timeline view: depth mapping, the pixel-budget downsampler,
// ASCII/SVG rendering (golden strings), windowed imbalance, phase detection,
// and end-to-end determinism of the rendered timeline across thread counts.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "pathview/analysis/timeline.hpp"
#include "pathview/db/trace.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/prof/trace_resolve.hpp"
#include "pathview/ui/timeline.hpp"
#include "pathview/workloads/registry.hpp"

namespace pathview {
namespace {

prof::CctNodeId frame_named(const prof::CanonicalCct& cct,
                            const std::string& name) {
  for (prof::CctNodeId id = 0; id < cct.size(); ++id)
    if (cct.node(id).kind == prof::CctKind::kFrame && cct.label(id) == name)
      return id;
  ADD_FAILURE() << "no frame named " << name;
  return prof::kCctNull;
}

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs these cases as parallel processes, and a
    // shared scratch directory would be remove_all'd under a sibling's feet.
    dir_ = std::string("/tmp/pathview_timeline_test_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    w_ = workloads::make_workload("paper", 1, 42);
    const auto raws = workloads::profile_workload(w_, 1);
    cct_ = std::make_unique<prof::CanonicalCct>(
        prof::correlate(raws[0], *w_.tree));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// One canonical trace per rank; spec[r] is a list of (until_time, node):
  /// records are emitted at every t in [prev_until, until) with that node.
  void write_traces(
      const std::vector<std::vector<std::pair<std::uint64_t,
                                              prof::CctNodeId>>>& spec) {
    for (std::uint32_t r = 0; r < spec.size(); ++r) {
      db::TraceWriter w(db::trace_path(dir_, r), r);
      std::uint64_t t = 0;
      for (const auto& [until, node] : spec[r])
        for (; t < until; ++t) w.append({t, node, 0});
      w.close();
    }
  }

  std::string dir_;
  workloads::Workload w_;
  std::unique_ptr<prof::CanonicalCct> cct_;
};

TEST_F(TimelineTest, DepthMapperCapsToEnclosingFrames) {
  const analysis::DepthMapper mapper(*cct_);
  for (prof::CctNodeId id = 0; id < cct_->size(); ++id) {
    // Uncapped: the node's own enclosing frame (or the root).
    const prof::CctNodeId deep = mapper.at_depth(id, 1000);
    const auto kind = cct_->node(deep).kind;
    EXPECT_TRUE(kind == prof::CctKind::kFrame || kind == prof::CctKind::kRoot);
    EXPECT_EQ(mapper.frame_depth(id), mapper.frame_depth(deep));
    // Capped: depth never exceeds the cap, and capping to 0 yields the root.
    for (int d = 0; d <= 3; ++d)
      EXPECT_LE(mapper.frame_depth(mapper.at_depth(id, d)), d);
    EXPECT_EQ(mapper.at_depth(id, 0), cct_->root());
  }
}

TEST_F(TimelineTest, RendererMatchesGolden) {
  const prof::CctNodeId m = frame_named(*cct_, "m");
  const prof::CctNodeId f = frame_named(*cct_, "f");
  const prof::CctNodeId g = frame_named(*cct_, "g");
  const prof::CctNodeId h = frame_named(*cct_, "h");

  ui::TimelineImage img;
  img.t0 = 0;
  img.t1 = 99;
  img.depth = 2;
  img.ranks = {0, 1};
  img.cells = {{m, m, f, f}, {g, prof::kCctNull, h, h}};

  const std::string expected =
      "timeline  t=[0, 99]  depth=2  (4 x 2)\n"
      "rank 0000 |AABB|\n"
      "rank 0001 |C.DD|\n"
      "legend:\n"
      "  A  m\n"
      "  B  f\n"
      "  C  g\n"
      "  D  h\n";
  EXPECT_EQ(ui::render_timeline(img, *cct_), expected);

  ui::TimelineRenderOptions ropts;
  ropts.show_legend = false;
  const std::string no_legend = ui::render_timeline(img, *cct_, ropts);
  EXPECT_EQ(no_legend.find("legend"), std::string::npos);

  ropts.ansi = true;
  const std::string ansi = ui::render_timeline(img, *cct_, ropts);
  EXPECT_NE(ansi.find("\x1b[48;5;"), std::string::npos);
  EXPECT_NE(ansi.find("\x1b[0m"), std::string::npos);
}

TEST_F(TimelineTest, SvgExportContainsMatrixAndLegend) {
  const prof::CctNodeId m = frame_named(*cct_, "m");
  ui::TimelineImage img;
  img.t1 = 9;
  img.ranks = {0};
  img.cells = {{m, m, prof::kCctNull, m}};
  const std::string svg = ui::timeline_svg(img, *cct_);
  EXPECT_EQ(svg.rfind("<svg ", 0), 0u);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find(">m</text>"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Two runs of 'm' cells -> at least two matrix rects plus one legend rect.
  std::size_t rects = 0;
  for (std::size_t at = svg.find("<rect"); at != std::string::npos;
       at = svg.find("<rect", at + 1))
    ++rects;
  EXPECT_EQ(rects, 3u);
}

TEST_F(TimelineTest, BuildTimelineDownsamplesByMode) {
  const prof::CctNodeId m = frame_named(*cct_, "m");
  const prof::CctNodeId f = frame_named(*cct_, "f");
  const prof::CctNodeId g = frame_named(*cct_, "g");
  const prof::CctNodeId h = frame_named(*cct_, "h");
  // rank 0 spends [0,50) in m and [50,100) in f; rank 1 flips g -> h at 25.
  write_traces({{{50, m}, {100, f}}, {{25, g}, {100, h}}});

  const auto traces = db::open_traces(dir_);
  analysis::TimelineOptions opts;
  opts.width = 4;
  opts.depth = 1000;  // no capping: cells are the recorded frames themselves
  const ui::TimelineImage img =
      analysis::build_timeline(traces, *cct_, opts);

  EXPECT_EQ(img.t0, 0u);
  EXPECT_EQ(img.t1, 99u);
  ASSERT_EQ(img.cells.size(), 2u);
  EXPECT_EQ(img.cells[0], (std::vector<prof::CctNodeId>{m, m, f, f}));
  EXPECT_EQ(img.cells[1], (std::vector<prof::CctNodeId>{g, h, h, h}));
}

TEST_F(TimelineTest, WindowedImbalanceFlagsTheLaggard) {
  const prof::CctNodeId m = frame_named(*cct_, "m");
  // rank 0 is active for the whole range, rank 1 only for the first half.
  write_traces({{{100, m}}, {{50, m}}});
  const auto traces = db::open_traces(dir_);
  const auto stats = analysis::windowed_imbalance(traces, 2);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].imbalance_pct, 0.0);  // both ranks: 50 records
  EXPECT_DOUBLE_EQ(stats[0].mean, 50.0);
  // Second window: rank 0 has 50, rank 1 has 0 -> max/mean = 2.0.
  EXPECT_DOUBLE_EQ(stats[1].mean, 25.0);
  EXPECT_DOUBLE_EQ(stats[1].max, 50.0);
  EXPECT_DOUBLE_EQ(stats[1].min, 0.0);
  EXPECT_DOUBLE_EQ(stats[1].imbalance_pct, 100.0);
}

TEST_F(TimelineTest, DetectPhasesFindsDominantRuns) {
  const prof::CctNodeId m = frame_named(*cct_, "m");
  const prof::CctNodeId f = frame_named(*cct_, "f");
  const prof::CctNodeId g = frame_named(*cct_, "g");
  const prof::CctNodeId lo = std::min(f, g), hi = std::max(f, g);
  ui::TimelineImage img;
  img.t0 = 0;
  img.t1 = 79;
  img.ranks = {0, 1};
  // Columns: m, m, (lo/hi tie), hi -> the tie must resolve to the smaller
  // node id, splitting a third phase between the m run and the hi run.
  img.cells = {{m, m, lo, hi}, {m, m, hi, hi}};
  const auto phases = analysis::detect_phases(img);
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].dominant, m);
  EXPECT_EQ(phases[0].col0, 0u);
  EXPECT_EQ(phases[0].col1, 1u);
  EXPECT_EQ(phases[0].t0, 0u);
  EXPECT_EQ(phases[0].t1, 39u);
  // Column 2 ties lo/hi -> smaller node id wins deterministically.
  EXPECT_EQ(phases[1].dominant, lo);
  EXPECT_EQ(phases[2].dominant, hi);
  EXPECT_EQ(phases[2].t1, 79u);
}

// The acceptance bar for the whole chain: capture -> merge -> resolve ->
// write -> render must produce bit-identical timelines for any --threads.
TEST(TimelineEndToEnd, RenderedTimelineIsThreadCountInvariant) {
  std::vector<std::string> renders;
  for (const std::uint32_t nthreads : {1u, 4u}) {
    const std::string dir =
        "/tmp/pathview_timeline_e2e_" + std::to_string(nthreads);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    workloads::Workload w = workloads::make_workload("subsurface", 4, 42);
    std::vector<sim::VectorTraceSink> sinks(4);
    const auto raws = workloads::profile_workload(
        w, 4, nthreads, [&sinks](std::uint32_t rank, std::uint32_t) {
          return static_cast<sim::TraceSink*>(&sinks[rank]);
        });

    prof::PipelineOptions popts;
    popts.nthreads = nthreads;
    const prof::CanonicalCct merged =
        prof::Pipeline(std::move(popts)).run(raws, *w.tree);
    const prof::TraceResolver resolver(merged);
    for (std::uint32_t r = 0; r < 4; ++r) {
      auto map = resolver.map_rank(raws[r]);
      db::TraceWriter out(db::trace_path(dir, r), r);
      for (const auto& ev : sinks[r].events)
        out.append({ev.time, map.resolve(ev), 0});
      out.close();
    }

    const auto traces = db::open_traces(dir);
    analysis::TimelineOptions opts;
    opts.width = 48;
    opts.depth = 3;
    renders.push_back(ui::render_timeline(
        analysis::build_timeline(traces, merged, opts), merged));
    std::filesystem::remove_all(dir);
  }
  ASSERT_EQ(renders.size(), 2u);
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_NE(renders[0].find("rank 0003"), std::string::npos);
}

}  // namespace
}  // namespace pathview
