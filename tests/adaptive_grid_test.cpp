// Tests for adaptive sweep allocation (engine/grid.hpp run_grid_adaptive)
// and the primitives under it: Engine::run_collect_range resumption,
// SuccessEstimate's Wilson intervals and the success rule, and the
// deterministic largest-remainder allocation rule. The headline law pinned
// here: the full (point, seed range) schedule — and every merged result —
// is a pure function of (grid declaration, total budget, config),
// byte-identical across thread counts and batch widths, and every
// adaptive point is prefix-identical to a uniform sweep of the same seed
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/grid.hpp"
#include "engine/report.hpp"
#include "util/error.hpp"

namespace rsb {
namespace {

Experiment le_base() {
  return Experiment::message_passing(SourceConfiguration::from_loads({2, 3}))
      .with_port_seed(7)
      .with_protocol("wait-for-singleton-LE")
      .with_task("leader-election")
      .with_rounds(300);
}

// Per-run random wiring makes the port stream position observable: a
// resumed range only matches a full sweep if the provider was really
// repositioned, not restarted.
Experiment random_wiring_base() {
  return le_base().with_port_policy(PortPolicy::kRandomPerRun);
}

// -------------------------------------------------- run_collect_range

TEST(RunCollectRange, SplitSweepsMergeToTheFullSweep) {
  const Experiment spec = random_wiring_base().with_seeds(1, 30);
  Engine engine;
  const RunStats full = engine.run_collect(spec, RunStats{});
  ASSERT_EQ(full.runs, 30u);

  // Odd, uneven split of the same range; merged in range order.
  RunStats merged = engine.run_collect_range(spec, SeedRange::of(1, 7),
                                             RunStats{});
  merged.merge(engine.run_collect_range(spec, SeedRange::of(8, 11),
                                        RunStats{}));
  merged.merge(engine.run_collect_range(spec, SeedRange::of(19, 12),
                                        RunStats{}));
  EXPECT_EQ(merged, full);
}

TEST(RunCollectRange, ResumptionHoldsAcrossThreadsAndBatchWidths) {
  const Experiment spec = random_wiring_base().with_seeds(1, 40);
  Engine serial;
  const RunStats full = serial.run_collect(spec, RunStats{});
  for (const int threads : {1, 4}) {
    for (const int batch : {1, 16}) {
      Engine engine;
      engine.set_parallel({threads, 0, batch});
      RunStats merged = engine.run_collect_range(spec, SeedRange::of(1, 13),
                                                 RunStats{});
      merged.merge(engine.run_collect_range(spec, SeedRange::of(14, 27),
                                            RunStats{}));
      EXPECT_EQ(merged, full) << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(RunCollectRange, RejectsRangesBeforeTheSpecsFirstSeed) {
  const Experiment spec = random_wiring_base().with_seeds(10, 20);
  Engine engine;
  EXPECT_THROW(engine.run_collect_range(spec, SeedRange::of(9, 5), RunStats{}),
               InvalidArgument);
  // The range may extend past the declared count (callers cap): seeds
  // {10..29} declared, range {25, 10} runs seeds 25..34.
  const RunStats tail =
      engine.run_collect_range(spec, SeedRange::of(25, 10), RunStats{});
  EXPECT_EQ(tail.runs, 10u);
}

// ------------------------------------------------------ SuccessEstimate

TEST(SuccessEstimate, HalfWidthEdgeCases) {
  SuccessEstimate empty;
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.point_estimate(), 0.5);
  EXPECT_DOUBLE_EQ(empty.half_width(), 0.5);  // total ignorance: [0, 1]
  EXPECT_DOUBLE_EQ(empty.ci_lo(), 0.0);
  EXPECT_DOUBLE_EQ(empty.ci_hi(), 1.0);

  SuccessEstimate one_win;
  one_win.add(1, 1);
  EXPECT_DOUBLE_EQ(one_win.point_estimate(), 1.0);
  EXPECT_GT(one_win.half_width(), 0.0);
  EXPECT_LT(one_win.half_width(), 0.5);  // one observation beats none
  EXPECT_GE(one_win.ci_lo(), 0.0);
  EXPECT_LE(one_win.ci_hi(), 1.0);

  SuccessEstimate all_fail;
  all_fail.add(50, 0);
  SuccessEstimate all_win;
  all_win.add(50, 50);
  // Wilson is symmetric: p=0 and p=1 at equal n have equal width, both
  // narrow, and the interval never leaves [0, 1].
  EXPECT_NEAR(all_fail.half_width(), all_win.half_width(), 1e-12);
  EXPECT_LT(all_win.half_width(), 0.1);
  EXPECT_GE(all_fail.ci_lo(), 0.0);
  EXPECT_LE(all_win.ci_hi(), 1.0);
  EXPECT_LT(all_fail.ci_lo(), all_fail.ci_hi());

  // More runs at the same rate always tighten the interval.
  SuccessEstimate few;
  few.add(10, 5);
  SuccessEstimate many;
  many.add(1000, 500);
  EXPECT_LT(many.half_width(), few.half_width());
}

TEST(SuccessEstimate, SuccessRuleReadsTaskAdmissionsOrTerminations) {
  // With a task, a run succeeds when the task admits it; without one, when
  // it terminates. One elected leader never satisfies m = 2.
  Engine engine;
  const RunStats judged = engine.run_collect(
      le_base().with_task("m-leader-election(2)").with_seeds(1, 40),
      RunStats{});
  ASSERT_TRUE(judged.task_checked);
  ASSERT_GT(judged.terminated, 0u);
  EXPECT_EQ(success_estimate(judged),
            (SuccessEstimate{judged.runs, judged.task_successes}));
  EXPECT_EQ(judged.task_successes, 0u);

  Experiment bare = le_base().with_seeds(1, 40);
  bare.task.reset();
  const RunStats unjudged = engine.run_collect(bare, RunStats{});
  ASSERT_FALSE(unjudged.task_checked);
  EXPECT_EQ(success_estimate(unjudged),
            (SuccessEstimate{unjudged.runs, unjudged.terminated}));
}

// ------------------------------------------------ allocate_adaptive_runs

std::vector<SuccessEstimate> estimates_of(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts) {
  std::vector<SuccessEstimate> out;
  for (const auto& [n, wins] : counts) {
    SuccessEstimate e;
    e.add(n, wins);
    out.push_back(e);
  }
  return out;
}

TEST(AllocateAdaptiveRuns, ProportionalToHalfWidthAndExactlySpendsBudget) {
  // Point 0: 8 runs at p=1/2 (wide interval). Point 1: 512 runs at p=1/2
  // (narrow). The wide point must get strictly more of the budget, and a
  // capacity-unconstrained call spends the budget exactly.
  const auto estimates = estimates_of({{8, 4}, {512, 256}});
  const std::vector<std::uint64_t> capacity = {1000, 1000};
  const auto alloc = allocate_adaptive_runs(estimates, capacity, 100, 1.96,
                                            0.0);
  ASSERT_EQ(alloc.size(), 2u);
  EXPECT_EQ(alloc[0] + alloc[1], 100u);
  EXPECT_GT(alloc[0], alloc[1]);
}

TEST(AllocateAdaptiveRuns, LargestRemainderBreaksTiesByPointIndex) {
  // Three identical estimates split a budget of 10 as 4/3/3: equal
  // quotas of 10/3 floor to 3 each and the leftover run goes to the
  // lowest index.
  const auto estimates = estimates_of({{8, 4}, {8, 4}, {8, 4}});
  const std::vector<std::uint64_t> capacity = {100, 100, 100};
  const auto alloc =
      allocate_adaptive_runs(estimates, capacity, 10, 1.96, 0.0);
  EXPECT_EQ(alloc, (std::vector<std::uint64_t>{4, 3, 3}));
}

TEST(AllocateAdaptiveRuns, CapacityClampsAndRefillsElsewhere) {
  // Point 0 is nearly full: whatever its share says, it gets at most 3,
  // and the clamped-off runs land on the other point.
  const auto estimates = estimates_of({{8, 4}, {8, 4}});
  const auto alloc = allocate_adaptive_runs(estimates, {3, 100}, 50, 1.96,
                                            0.0);
  EXPECT_EQ(alloc, (std::vector<std::uint64_t>{3, 47}));

  // Budget larger than total capacity: every point fills, nothing more.
  const auto capped = allocate_adaptive_runs(estimates, {3, 5}, 50, 1.96,
                                             0.0);
  EXPECT_EQ(capped, (std::vector<std::uint64_t>{3, 5}));
}

TEST(AllocateAdaptiveRuns, TargetConvergedPointsGetNothing) {
  // Point 1's interval is already narrower than the target; the whole
  // budget goes to point 0.
  const auto estimates = estimates_of({{8, 4}, {4096, 2048}});
  ASSERT_LE(estimates[1].half_width(), 0.02);
  const auto alloc = allocate_adaptive_runs(estimates, {100, 100}, 40, 1.96,
                                            0.02);
  EXPECT_EQ(alloc, (std::vector<std::uint64_t>{40, 0}));

  // Everyone converged: nothing is allocated at all.
  const auto none = allocate_adaptive_runs(
      estimates_of({{4096, 2048}, {4096, 2048}}), {100, 100}, 40, 1.96, 0.02);
  EXPECT_EQ(none, (std::vector<std::uint64_t>{0, 0}));
}

TEST(AllocateAdaptiveRuns, ZeroBudgetAndShapeErrors) {
  const auto estimates = estimates_of({{8, 4}, {8, 4}});
  EXPECT_EQ(allocate_adaptive_runs(estimates, {10, 10}, 0, 1.96, 0.0),
            (std::vector<std::uint64_t>{0, 0}));
  EXPECT_THROW(allocate_adaptive_runs(estimates, {10}, 5, 1.96, 0.0),
               InvalidArgument);
}

// ------------------------------------------------------ run_grid_adaptive

Grid fault_grid(std::uint64_t seeds) {
  // Crash counts drive the success rate apart across points, so the
  // allocator has real variance differences to react to. The base task
  // tolerates t = 2, so every point of the sweep is judged by the same
  // survivor-based predicate.
  Grid grid(Experiment::blackboard(SourceConfiguration::all_private(5))
                .with_protocol("wait-for-singleton-LE")
                .with_task("t-resilient-leader-election(2)")
                .with_faults(sim::FaultPlan::crash_stop(2, 6))
                .with_rounds(300));
  grid.over_fault_counts({0, 1, 2}).over_seeds(1, seeds);
  return grid;
}

TEST(RunGridAdaptive, ScheduleAndResultsAreAPureFunctionOfTheDeclaration) {
  const Grid grid = fault_grid(200);
  const AdaptiveConfig config{.pilot = 16, .rounds = 3};
  Engine reference_engine;
  const auto reference =
      run_grid_adaptive(reference_engine, grid, 240, config);
  ASSERT_EQ(reference.points.size(), 3u);
  EXPECT_EQ(reference.runs_spent, 240u);

  // Same declaration, any threads x batch: identical schedule, identical
  // per-point stats and estimates, run for run.
  for (const int threads : {1, 4}) {
    for (const int batch : {1, 16}) {
      Engine engine;
      engine.set_parallel({threads, 0, batch});
      const auto result = run_grid_adaptive(engine, grid, 240, config);
      EXPECT_EQ(result.schedule, reference.schedule)
          << "threads=" << threads << " batch=" << batch;
      ASSERT_EQ(result.points.size(), reference.points.size());
      for (std::size_t p = 0; p < result.points.size(); ++p) {
        EXPECT_EQ(result.points[p], reference.points[p])
            << "point " << p << " threads=" << threads << " batch=" << batch;
      }
    }
  }
}

TEST(RunGridAdaptive, PointsArePrefixIdenticalToUniformSweeps) {
  const Grid grid = fault_grid(200);
  Engine engine;
  const auto adaptive =
      run_grid_adaptive(engine, grid, 240, AdaptiveConfig{.pilot = 16});
  const std::vector<GridPoint> points = grid.expand();
  ASSERT_EQ(adaptive.points.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    // A point that spent k runs must equal a plain uniform sweep of its
    // first k seeds — adaptivity changes how much gets run, never what
    // any run computes.
    Experiment prefix = points[p].spec;
    prefix.seeds = SeedRange::of(prefix.seeds.first, adaptive.points[p].runs);
    const RunStats uniform = engine.run_collect(prefix, RunStats{});
    EXPECT_EQ(adaptive.points[p], uniform) << "point " << p;
  }
}

TEST(RunGridAdaptive, BudgetAccountingIsExact) {
  const Grid grid = fault_grid(500);
  Engine engine;
  const auto result = run_grid_adaptive(engine, grid, 300,
                                        AdaptiveConfig{.pilot = 20});
  // Targetless with headroom at every point: the budget is spent to the
  // last run, and the three ledgers agree.
  EXPECT_EQ(result.budget, 300u);
  EXPECT_EQ(result.runs_spent, 300u);
  std::uint64_t by_point = 0;
  for (const auto& point : result.points) {
    by_point += point.runs;
    EXPECT_GE(point.runs, 20u);  // the pilot is unconditional
    EXPECT_LE(point.runs, 500u);  // never past the declared range
  }
  EXPECT_EQ(by_point, 300u);
  std::uint64_t by_schedule = 0;
  std::vector<std::uint64_t> next_seed(result.points.size(), 1);
  for (const AdaptiveAssignment& slot : result.schedule) {
    // Each point's installments are contiguous from its first seed.
    EXPECT_EQ(slot.range.first, next_seed[slot.point]);
    next_seed[slot.point] += slot.range.count;
    by_schedule += slot.range.count;
  }
  EXPECT_EQ(by_schedule, 300u);
}

TEST(RunGridAdaptive, TargetHalfWidthStopsEarlyAndLeavesBudgetUnspent) {
  // gcd-1 leader election under cyclic wiring always succeeds: every
  // point's interval collapses fast, so a loose target converges right
  // after the pilot and the sweep stops without touching the rest of the
  // budget.
  Grid grid(le_base().with_port_policy(PortPolicy::kCyclic));
  grid.over_rounds({200, 300}).over_seeds(1, 400);
  Engine engine;
  const auto result = run_grid_adaptive(
      engine, grid, 600,
      AdaptiveConfig{.pilot = 32, .rounds = 4, .target_half_width = 0.2});
  EXPECT_EQ(result.runs_spent, 64u);  // 2 points x pilot only
  EXPECT_EQ(result.rounds_executed, 0);
  for (const auto& point : result.points) {
    EXPECT_EQ(point.runs, 32u);
    EXPECT_LE(success_estimate(point).half_width(), 0.2);
  }
}

TEST(RunGridAdaptive, ValidatesBudgetPilotAndConfig) {
  const Grid grid = fault_grid(100);
  Engine engine;
  // Budget below points x pilot.
  EXPECT_THROW(run_grid_adaptive(engine, grid, 10, AdaptiveConfig{.pilot = 8}),
               InvalidArgument);
  // Pilot past the declared seed range.
  EXPECT_THROW(
      run_grid_adaptive(engine, grid, 1000, AdaptiveConfig{.pilot = 101}),
      InvalidArgument);
  EXPECT_THROW(
      run_grid_adaptive(engine, grid, 100, AdaptiveConfig{.pilot = 0}),
      InvalidArgument);
  EXPECT_THROW(
      run_grid_adaptive(engine, grid, 100,
                        AdaptiveConfig{.pilot = 8, .rounds = 0}),
      InvalidArgument);
  EXPECT_THROW(run_grid_adaptive(engine, grid, 100,
                                 AdaptiveConfig{.pilot = 8, .z = 0.0}),
               InvalidArgument);
}

TEST(RunGridAdaptive, GridTableReportsEstimatesAndRunsSpent) {
  const Grid grid = fault_grid(100);
  Engine engine;
  const auto result = run_grid_adaptive(engine, grid, 150,
                                        AdaptiveConfig{.pilot = 16});
  const ResultTable table = grid_table("adaptive", grid, result);
  ASSERT_EQ(table.num_rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto runs_spent = std::get<std::int64_t>(table.at(i, "runs_spent"));
    EXPECT_EQ(static_cast<std::uint64_t>(runs_spent), result.points[i].runs);
    const double lo = std::get<double>(table.at(i, "ci_lo"));
    const double hi = std::get<double>(table.at(i, "ci_hi"));
    const double half = std::get<double>(table.at(i, "half_width"));
    EXPECT_GE(lo, 0.0);
    EXPECT_LE(hi, 1.0);
    EXPECT_LE(lo, hi);
    EXPECT_GT(half, 0.0);
  }
}

}  // namespace
}  // namespace rsb
