// Property tests for the parallel reduction-tree merge pipeline: the merged
// CCT must be bit-identical to the serial left fold (merge_serial) for every
// thread count, reduction arity, and batch size; tree-merge must behave
// associatively/commutatively on shuffled part orders; plus the empty-input
// and single-rank edge cases and the single-part move/steal path.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "pathview/obs/obs.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/random_program.hpp"
#include "pathview/workloads/registry.hpp"
#include "pathview/workloads/subsurface.hpp"

namespace pathview::prof {
namespace {

using model::Event;

/// Bit-identical comparison: same node ids, shapes, and sample doubles.
void expect_identical(const CanonicalCct& a, const CanonicalCct& b) {
  ASSERT_EQ(a.size(), b.size());
  for (CctNodeId id = 0; id < a.size(); ++id) {
    const CctNode& x = a.node(id);
    const CctNode& y = b.node(id);
    EXPECT_EQ(x.kind, y.kind) << "node " << id;
    EXPECT_EQ(x.parent, y.parent) << "node " << id;
    EXPECT_EQ(x.scope, y.scope) << "node " << id;
    EXPECT_EQ(x.call_site, y.call_site) << "node " << id;
    EXPECT_EQ(x.children, y.children) << "node " << id;
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      EXPECT_EQ(a.samples(id).v[e], b.samples(id).v[e])
          << "node " << id << " event " << e;
  }
}

std::vector<CanonicalCct> random_parts(const workloads::Workload& w,
                                       std::uint32_t nranks) {
  sim::ParallelConfig pc;
  pc.nranks = nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  return Pipeline().correlate(raws, *w.tree);
}

TEST(Pipeline, TreeMergeMatchesSerialForEveryConfig) {
  for (const std::uint64_t seed : {10ull, 77ull}) {
    workloads::Workload w = workloads::make_random_program({.seed = seed});
    const std::vector<CanonicalCct> parts = random_parts(w, 8);
    const CanonicalCct ref = merge_serial(parts);
    for (const std::uint32_t nthreads : {1u, 2u, 8u}) {
      for (const std::uint32_t arity : {2u, 4u}) {
        for (const std::uint32_t batch : {0u, 1u, 3u}) {
          PipelineOptions opts;
          opts.nthreads = nthreads;
          opts.reduction_arity = arity;
          opts.batch_size = batch;
          const CanonicalCct merged = Pipeline(std::move(opts)).merge(parts);
          SCOPED_TRACE(testing::Message()
                       << "seed=" << seed << " nthreads=" << nthreads
                       << " arity=" << arity << " batch=" << batch);
          expect_identical(merged, ref);
        }
      }
    }
  }
}

TEST(Pipeline, RunOverlappedMatchesSerialStages) {
  workloads::Workload w = workloads::make_random_program({.seed = 5});
  sim::ParallelConfig pc;
  pc.nranks = 6;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const CanonicalCct ref = merge_serial(Pipeline().correlate(raws, *w.tree));
  for (const std::uint32_t nthreads : {1u, 4u}) {
    PipelineOptions opts;
    opts.nthreads = nthreads;
    const CanonicalCct merged = Pipeline(std::move(opts)).run(raws, *w.tree);
    expect_identical(merged, ref);
  }
}

TEST(Pipeline, ShuffledPartOrderIsMetricIdentical) {
  // Random programs have integer costs and period-1 sampling, so sample
  // sums are exact: any part order must give bit-identical metric totals
  // (the tree-merge is commutative, not just associative).
  workloads::Workload w = workloads::make_random_program({.seed = 21});
  std::vector<CanonicalCct> parts = random_parts(w, 8);
  const CanonicalCct ref = merge_serial(parts);

  std::mt19937 rng(99);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(parts.begin(), parts.end(), rng);
    PipelineOptions opts;
    opts.nthreads = 2;
    opts.reduction_arity = round == 0 ? 2 : 4;
    const CanonicalCct merged = Pipeline(std::move(opts)).merge(parts);
    // Shuffling renumbers nodes, but the union shape and every metric
    // total are preserved exactly.
    ASSERT_EQ(merged.size(), ref.size());
    for (std::size_t e = 0; e < model::kNumEvents; ++e)
      EXPECT_EQ(merged.totals().v[e], ref.totals().v[e]) << "event " << e;
    // And the shuffled serial fold is reproduced bit for bit.
    expect_identical(merged, merge_serial(parts));
  }
}

TEST(Pipeline, EmptyInputThrows) {
  EXPECT_THROW(Pipeline().merge({}), InvalidArgument);
  workloads::Workload w = workloads::make_random_program({.seed = 3});
  const std::vector<sim::RawProfile> no_ranks;
  EXPECT_THROW(Pipeline().run(no_ranks, *w.tree), InvalidArgument);
}

TEST(Pipeline, CorrelateErrorOnAWorkerIsRethrown) {
  // A rank with a sample at an address no statement covers makes
  // prof::correlate throw on a worker thread; the worker pool must join and
  // hand the typed error to the caller instead of terminating.
  workloads::Workload w = workloads::make_random_program({.seed = 6});
  sim::ParallelConfig pc;
  pc.nranks = 8;
  pc.base = w.run;
  std::vector<sim::RawProfile> raws =
      sim::run_parallel(*w.program, *w.lowering, pc);
  raws[5].add_sample(sim::kRawRoot, 0xdeadbeefULL, Event::kCycles, 1.0);
  PipelineOptions opts;
  opts.nthreads = 4;
  EXPECT_THROW(Pipeline(opts).correlate(raws, *w.tree), InvalidArgument);
  EXPECT_THROW(Pipeline(opts).run(raws, *w.tree), InvalidArgument);
}

TEST(Pipeline, RejectsMixedStructureTrees) {
  workloads::Workload w1 = workloads::make_random_program({.seed = 4});
  workloads::Workload w2 = workloads::make_random_program({.seed = 4});
  std::vector<CanonicalCct> parts;
  parts.push_back(random_parts(w1, 1).front());
  parts.push_back(random_parts(w2, 1).front());
  EXPECT_THROW(Pipeline().merge(std::move(parts)), InvalidArgument);
}

TEST(Pipeline, SingleRankMatchesSerialWithoutReallocation) {
  workloads::Workload w = workloads::make_random_program({.seed = 8});
  const std::vector<CanonicalCct> parts = random_parts(w, 1);
  const CanonicalCct ref = merge_serial(parts);

  obs::set_enabled(true);
  obs::reset();
  const CanonicalCct merged =
      Pipeline().merge(std::vector<CanonicalCct>(parts));
  std::uint64_t allocated = 0;
  for (const auto& [name, value] : obs::snapshot().counters)
    if (name == "prof.cct_nodes_allocated") allocated = value;
  obs::set_enabled(false);

  expect_identical(merged, ref);
  // The consuming overload moves the lone part through the pipeline instead
  // of re-inserting it node by node (the serial fold would have allocated
  // size()-1 nodes here).
  EXPECT_EQ(allocated, 0u);
  EXPECT_GT(merged.size(), 1u);
}

TEST(Pipeline, MoveMergeStealsIntoEmptyAccumulator) {
  workloads::Workload w = workloads::make_random_program({.seed = 9});
  const CanonicalCct part = random_parts(w, 1).front();
  CanonicalCct copy = part;

  obs::set_enabled(true);
  obs::reset();
  CanonicalCct acc(&part.tree());
  acc.merge(std::move(copy));
  std::uint64_t allocated = 0;
  for (const auto& [name, value] : obs::snapshot().counters)
    if (name == "prof.cct_nodes_allocated") allocated = value;
  obs::set_enabled(false);

  EXPECT_EQ(allocated, 0u);
  expect_identical(acc, part);

  // Non-empty accumulator: the move overload falls back to copy-merge and
  // still matches the two-part serial fold.
  CanonicalCct copy2 = part;
  acc.merge(std::move(copy2));
  expect_identical(acc, merge_serial({part, part}));
}

TEST(Pipeline, ProgressCallbackCoversAllTasks) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(8);
  sim::ParallelConfig pc;
  pc.nranks = 8;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);

  std::size_t correlate_done = 0, merge_done = 0;
  std::size_t correlate_total = 0, merge_total = 0;
  PipelineOptions opts;
  opts.nthreads = 2;
  opts.batch_size = 2;
  opts.progress = [&](const PipelineProgress& p) {
    if (p.stage == PipelineProgress::Stage::kCorrelate) {
      EXPECT_EQ(p.completed, correlate_done + 1);  // serialized, monotone
      correlate_done = p.completed;
      correlate_total = p.total;
    } else {
      EXPECT_EQ(p.completed, merge_done + 1);
      merge_done = p.completed;
      merge_total = p.total;
    }
  };
  const CanonicalCct merged = Pipeline(std::move(opts)).run(raws, *w.tree);
  EXPECT_GT(merged.size(), 1u);
  EXPECT_EQ(correlate_done, correlate_total);
  EXPECT_EQ(merge_done, merge_total);
  EXPECT_EQ(correlate_total, 4u);  // 8 ranks / batch 2
  EXPECT_GE(merge_total, 1u);
}

TEST(Pipeline, JitteredWorkloadStillMatchesSerial) {
  // Subsurface uses dithered sampling periods (fractional sample values):
  // determinism must not depend on sample values being integers.
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(8);
  sim::ParallelConfig pc;
  pc.nranks = 8;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const std::vector<CanonicalCct> parts = Pipeline().correlate(raws, *w.tree);
  const CanonicalCct ref = merge_serial(parts);
  for (const std::uint32_t nthreads : {2u, 8u}) {
    for (const std::uint32_t arity : {2u, 4u}) {
      PipelineOptions opts;
      opts.nthreads = nthreads;
      opts.reduction_arity = arity;
      opts.batch_size = 1;
      expect_identical(Pipeline(std::move(opts)).merge(parts), ref);
    }
  }
}

}  // namespace
}  // namespace pathview::prof
