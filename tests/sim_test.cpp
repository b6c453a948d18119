// Unit tests for the execution engine and asynchronous sampler.
#include <gtest/gtest.h>

#include <set>

#include "pathview/model/builder.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pathview::sim {
namespace {

using model::Event;
using model::make_cost;

/// p() { work(3); q(); }  q() { for(2) work(2); }
model::Program two_proc_program() {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto q = b.proc("q", file, 10);
  b.in(p).compute(2, make_cost(3)).call(3, q);
  const auto loop = b.in(q).loop(11, 2);
  b.in(q, loop).compute(12, make_cost(2, 1));
  b.set_entry(p);
  return b.finish();
}

TEST(Engine, ExactAttributionAtPeriodOne) {
  const model::Program prog = two_proc_program();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.sampler.sample(Event::kInstructions, 1.0);
  ExecutionEngine eng(prog, aspace, cfg);
  const RawProfile raw = eng.run();

  // work(3) + 2 * work(2) cycles; 2 * 1 instructions.
  EXPECT_EQ(raw.totals()[Event::kCycles], 7.0);
  EXPECT_EQ(raw.totals()[Event::kInstructions], 2.0);
  EXPECT_EQ(eng.true_totals()[Event::kCycles], 7.0);
  EXPECT_EQ(raw.sample_count(Event::kCycles), 7u);
  // Frames: root + p + q.
  EXPECT_EQ(raw.nodes().size(), 3u);
}

TEST(Engine, SampledTotalsApproximateTrueTotals) {
  const model::Program prog = [] {
    model::ProgramBuilder b;
    const auto file = b.file("x.c", b.module("a.out"));
    const auto p = b.proc("p", file, 1);
    const auto loop = b.in(p).loop(2, 1000);
    b.in(p, loop).compute(3, make_cost(137.0));
    b.set_entry(p);
    return b.finish();
  }();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1000.0);  // coarse period
  cfg.sampler.random_phase = true;
  ExecutionEngine eng(prog, aspace, cfg);
  const RawProfile raw = eng.run();
  const double truth = eng.true_totals()[Event::kCycles];
  EXPECT_NEAR(raw.totals()[Event::kCycles], truth, 2000.0);
  EXPECT_GT(truth, 130000.0);
}

TEST(Engine, DeterministicForSameSeed) {
  workloads::Workload w = workloads::make_random_program({.seed = 77});
  RunConfig cfg = w.run;
  ExecutionEngine a(*w.program, *w.lowering, cfg);
  ExecutionEngine b(*w.program, *w.lowering, cfg);
  const auto ca = a.run().cells();
  const auto cb = b.run().cells();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].node, cb[i].node);
    EXPECT_EQ(ca[i].leaf, cb[i].leaf);
    EXPECT_EQ(ca[i].counts[Event::kCycles], cb[i].counts[Event::kCycles]);
  }
}

TEST(Engine, RecursionBoundedByMaxDepth) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  b.in(p).compute(2, make_cost(1)).call(3, p, {.max_rec_depth = 5});
  b.set_entry(p);
  const model::Program prog = b.finish();

  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  ExecutionEngine eng(prog, aspace, cfg);
  const RawProfile raw = eng.run();
  // 5 live frames max -> 5 executions of work(1); trie: root + 5 frames.
  EXPECT_EQ(raw.totals()[Event::kCycles], 5.0);
  EXPECT_EQ(raw.nodes().size(), 6u);
}

TEST(Engine, StackDepthLimitStopsCalls) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  b.in(p).compute(2, make_cost(1)).call(3, p, {.max_rec_depth = 1000000});
  b.set_entry(p);
  const model::Program prog = b.finish();

  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.max_stack_depth = 16;
  ExecutionEngine eng(prog, aspace, cfg);
  EXPECT_EQ(eng.run().totals()[Event::kCycles], 16.0);
}

TEST(Engine, CallProbabilityZeroNeverCalls) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto q = b.proc("q", file, 10);
  b.in(p).compute(2, make_cost(1)).call(3, q, {.prob = 0.0});
  b.in(q).compute(11, make_cost(100));
  b.set_entry(p);
  const model::Program prog = b.finish();

  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  ExecutionEngine eng(prog, aspace, cfg);
  EXPECT_EQ(eng.run().totals()[Event::kCycles], 1.0);
}

TEST(Engine, RequiresASampledEvent) {
  const model::Program prog = two_proc_program();
  model::IdentityAddressSpace aspace;
  EXPECT_THROW(ExecutionEngine(prog, aspace, RunConfig{}), InvalidArgument);
}

TEST(Engine, CostTransformApplies) {
  const model::Program prog = two_proc_program();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.cost_transform = [](std::uint32_t, std::uint32_t, model::StmtId,
                          const model::EventVector& base) {
    return base * 3.0;
  };
  ExecutionEngine eng(prog, aspace, cfg);
  EXPECT_EQ(eng.run().totals()[Event::kCycles], 21.0);
}

TEST(Sampler, PeriodAttributionGranularity) {
  // A 10-cycle statement sampled at period 4: accumulate 10 -> 2 samples,
  // carry 2 into the next visit.
  SamplerConfig cfg;
  cfg.sample(Event::kCycles, 4.0);
  Prng prng(1);
  Sampler s(cfg, prng);
  int fired = 0;
  const auto fire = [&](Event, double v) {
    EXPECT_EQ(v, 4.0);
    ++fired;
  };
  s.charge(make_cost(10), fire);
  EXPECT_EQ(fired, 2);
  s.charge(make_cost(10), fire);  // carry 2 + 10 = 12 -> 3 more
  EXPECT_EQ(fired, 5);
}

TEST(ParallelRunner, OneProfilePerRank) {
  workloads::Workload w = workloads::make_random_program(
      {.seed = 3, .random_call_probs = false});
  ParallelConfig pc;
  pc.nranks = 5;
  pc.base = w.run;
  pc.nthreads = 2;
  const std::vector<RawProfile> profiles =
      run_parallel(*w.program, *w.lowering, pc);
  ASSERT_EQ(profiles.size(), 5u);
  for (std::uint32_t r = 0; r < 5; ++r) {
    EXPECT_EQ(profiles[r].rank, r);
    EXPECT_GT(profiles[r].totals()[Event::kCycles], 0.0);
  }
}

TEST(ParallelRunner, ThreadCountDoesNotChangeResults) {
  workloads::Workload w = workloads::make_random_program({.seed = 4});
  ParallelConfig pc;
  pc.nranks = 4;
  pc.base = w.run;
  pc.nthreads = 1;
  const auto seq = run_parallel(*w.program, *w.lowering, pc);
  pc.nthreads = 4;
  const auto par = run_parallel(*w.program, *w.lowering, pc);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(seq[r].totals()[Event::kCycles],
              par[r].totals()[Event::kCycles]);
    EXPECT_EQ(seq[r].cells().size(), par[r].cells().size());
  }
}

TEST(ParallelRunner, RejectsZeroRanks) {
  workloads::Workload w = workloads::make_random_program({.seed = 5});
  ParallelConfig pc;
  pc.base = w.run;
  pc.nranks = 0;
  EXPECT_THROW(run_parallel(*w.program, *w.lowering, pc), InvalidArgument);
}

TEST(ParallelRunner, WorkerErrorIsRethrownAfterJoin) {
  // Every rank's engine rejects a config with no sampled event; with a
  // multi-thread pool the error surfaces here instead of terminating.
  workloads::Workload w = workloads::make_random_program({.seed = 5});
  ParallelConfig pc;
  pc.nranks = 6;
  pc.nthreads = 4;
  EXPECT_THROW(run_parallel(*w.program, *w.lowering, pc), InvalidArgument);
}

TEST(RawProfile, CellsAreDeterministicallyOrdered) {
  RawProfile p;
  const auto a = p.child(kRawRoot, 0, 100);
  const auto b = p.child(a, 8, 200);
  p.add_sample(b, 50, Event::kCycles, 1);
  p.add_sample(a, 40, Event::kCycles, 1);
  p.add_sample(b, 30, Event::kCycles, 1);
  const auto cells = p.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_TRUE(cells[0].node < cells[1].node ||
              (cells[0].node == cells[1].node && cells[0].leaf < cells[1].leaf));
  // find-or-insert is idempotent
  EXPECT_EQ(p.child(kRawRoot, 0, 100), a);
}

/// The simulator inserts cells in execution order, not key order; cells()
/// must still return them sorted, with counts accumulated per cell and
/// totals() equal to their sum.
TEST(RawProfile, SimulatedCellsComeBackSortedWithUnchangedTotals) {
  workloads::Workload w = workloads::make_random_program({.seed = 33});
  RunConfig cfg = w.run;
  cfg.sampler = SamplerConfig{};
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.sampler.sample(Event::kInstructions, 1.0);
  ExecutionEngine eng(*w.program, *w.lowering, cfg);
  const RawProfile raw = eng.run();
  const auto cells = raw.cells();
  ASSERT_GT(cells.size(), 10u);
  model::EventVector sum;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      EXPECT_TRUE(cells[i - 1].node < cells[i].node ||
                  (cells[i - 1].node == cells[i].node &&
                   cells[i - 1].leaf < cells[i].leaf))
          << i;
    }
    sum += cells[i].counts;
  }
  // Period 1: every sample is worth 1, so every sum is exact in any order.
  for (std::size_t e = 0; e < model::kNumEvents; ++e)
    EXPECT_EQ(raw.totals().v[e], sum.v[e]) << e;
  EXPECT_EQ(raw.totals()[Event::kCycles],
            static_cast<double>(raw.sample_count(Event::kCycles)));

  // Re-adding a sample to an existing (non-last) cell accumulates there.
  RawProfile p;
  const auto a = p.child(kRawRoot, 0, 100);
  p.add_sample(a, 20, Event::kCycles, 2);
  p.add_sample(a, 10, Event::kCycles, 1);
  p.add_sample(a, 20, Event::kCycles, 3);
  const auto pc = p.cells();
  ASSERT_EQ(pc.size(), 2u);
  EXPECT_EQ(pc[0].leaf, 10u);
  EXPECT_EQ(pc[1].counts[Event::kCycles], 5.0);
  EXPECT_EQ(p.sample_count(Event::kCycles), 3u);
}

}  // namespace
}  // namespace pathview::sim

namespace pathview::sim {
namespace {

TEST(ParallelRunner, ThreadsPerRankProduceDistinctProfiles) {
  workloads::Workload w = workloads::make_random_program({.seed = 21});
  ParallelConfig pc;
  pc.nranks = 2;
  pc.threads_per_rank = 3;
  pc.base = w.run;
  const auto profiles = run_parallel(*w.program, *w.lowering, pc);
  ASSERT_EQ(profiles.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(profiles[i].rank, i / 3);
    EXPECT_EQ(profiles[i].thread, i % 3);
  }
}

}  // namespace
}  // namespace pathview::sim

namespace pathview::sim {
namespace {

TEST(Engine, TripJitterVariesTripsWithinBounds) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto loop = b.in(p).loop(2, 100, /*trip_jitter=*/0.2);
  b.in(p, loop).compute(3, model::make_cost(1));
  b.set_entry(p);
  const model::Program prog = b.finish();
  model::IdentityAddressSpace aspace;

  std::set<double> totals;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunConfig cfg;
    cfg.seed = seed;
    cfg.sampler.sample(Event::kCycles, 1.0);
    ExecutionEngine eng(prog, aspace, cfg);
    const double t = eng.run().totals()[Event::kCycles];
    EXPECT_GE(t, 80.0);   // 100 * (1 - 0.2)
    EXPECT_LE(t, 120.0);  // 100 * (1 + 0.2)
    totals.insert(t);
  }
  EXPECT_GT(totals.size(), 1u);  // jitter actually varies the trip count
}

TEST(Engine, BranchProbabilityIsRespected) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto loop = b.in(p).loop(2, 10000);
  const auto br = b.in(p, loop).branch(3, 0.25);
  b.in(p, br).compute(4, model::make_cost(1));
  b.set_entry(p);
  const model::Program prog = b.finish();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  ExecutionEngine eng(prog, aspace, cfg);
  const double taken = eng.run().totals()[Event::kCycles];
  EXPECT_NEAR(taken / 10000.0, 0.25, 0.02);
}

TEST(Engine, VisitBudgetStopsConsistently) {
  model::ProgramBuilder b;
  const auto file = b.file("x.c", b.module("a.out"));
  const auto p = b.proc("p", file, 1);
  const auto loop = b.in(p).loop(2, 1000000);
  b.in(p, loop).compute(3, model::make_cost(1));
  b.set_entry(p);
  const model::Program prog = b.finish();
  model::IdentityAddressSpace aspace;
  RunConfig cfg;
  cfg.sampler.sample(Event::kCycles, 1.0);
  cfg.max_visits = 5000;
  ExecutionEngine eng(prog, aspace, cfg);
  const RawProfile raw = eng.run();
  // Bounded, and sampled totals still equal true totals.
  EXPECT_LE(eng.true_totals()[Event::kCycles], 5001.0);
  EXPECT_DOUBLE_EQ(raw.totals()[Event::kCycles],
                   eng.true_totals()[Event::kCycles]);
}

}  // namespace
}  // namespace pathview::sim
