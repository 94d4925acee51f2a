// Adaptive sweep allocation — confidence-driven run budgets.
//
// A uniform grid sweep spends the same runs at every point even though
// most points' success estimates converge long before the widest one.
// run_grid_adaptive (engine/grid.hpp) pilots every point, then pours the
// remaining budget into the points with the widest Wilson intervals. This
// bench pins the payoff on a fault-count x round-budget grid whose
// success rates genuinely differ across points (crashes drag success
// down; a tight round budget truncates the slow symmetry-breaking tail):
//
//  * shape checks: to bring every point's 95% CI half-width under the
//    width a uniform sweep achieves, the adaptive schedule spends
//    measurably fewer runs than the uniform sweep did; the schedule and
//    results are byte-identical across thread counts.
//  * throughput rows: the adaptive sweep end to end and the equal-width
//    uniform sweep, recorded to BENCH_adaptive_grid.json for the
//    --baseline gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "bench_util.hpp"
#include "engine/grid.hpp"
#include "engine/report.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace rsb;
using rsb::bench::check;
using rsb::bench::header;

// 6 points: t in {0,1,2} x rounds in {12, 300}. All five parties share
// one load class, so termination needs randomized symmetry breaking and
// the tight round budget truncates its tail; the base task tolerates
// t = 2, so every point is judged by the same survivor-based predicate
// and the t-sweep shows real success-rate spread.
Grid sweep_grid(std::uint64_t seeds) {
  Grid grid(Experiment::blackboard(SourceConfiguration::all_private(5))
                .with_protocol("wait-for-singleton-LE")
                .with_task("t-resilient-leader-election(2)")
                .with_faults(sim::FaultPlan::crash_stop(2, 6))
                .with_rounds(300));
  grid.over_fault_counts({0, 1, 2})
      .over_rounds({12, 300})
      .over_seeds(1, seeds);
  return grid;
}

constexpr std::uint64_t kUniformRunsPerPoint = 384;
constexpr std::uint64_t kSeedsPerPoint = 600;  // adaptive headroom

void report_adaptive_grid() {
  header("Adaptive sweep allocation — runs where the variance is");

  // --- the uniform yardstick -------------------------------------------
  // A uniform sweep spends kUniformRunsPerPoint everywhere; its widest
  // point's half-width is the accuracy that budget actually bought.
  const Grid uniform_grid = sweep_grid(kUniformRunsPerPoint);
  Engine engine;
  const std::vector<RunStats> uniform = run_grid(engine, uniform_grid);
  const std::uint64_t uniform_total =
      kUniformRunsPerPoint * uniform.size();
  double uniform_width = 0.0;
  double narrowest = 1.0;
  for (const RunStats& point : uniform) {
    const double width = success_estimate(point).half_width();
    uniform_width = std::max(uniform_width, width);
    narrowest = std::min(narrowest, width);
  }
  check(narrowest < uniform_width,
        "the grid's success rates genuinely differ across points "
        "(narrowest CI " + std::to_string(narrowest) + " vs widest " +
            std::to_string(uniform_width) + ") — uniform overspends "
            "somewhere");

  // --- adaptive reaches the same accuracy for less ---------------------
  // Same seed universe, the uniform width as the target: the sweep stops
  // as soon as every point is at least that tight.
  const Grid adaptive_grid = sweep_grid(kSeedsPerPoint);
  const AdaptiveConfig config{.pilot = 32,
                              .rounds = 6,
                              .z = 1.96,
                              .target_half_width = uniform_width};
  const std::uint64_t budget = kSeedsPerPoint * uniform.size();
  const auto adaptive = run_grid_adaptive(engine, adaptive_grid, budget,
                                          config);

  ResultTable table("adaptive_vs_uniform");
  const std::vector<GridPoint> points = adaptive_grid.expand();
  double adaptive_width = 0.0;
  for (std::size_t p = 0; p < adaptive.points.size(); ++p) {
    const SuccessEstimate estimate = success_estimate(adaptive.points[p]);
    table.add_row()
        .set("point", points[p].label())
        .set("uniform_runs", kUniformRunsPerPoint)
        .set("adaptive_runs", adaptive.points[p].runs)
        .set("success_rate", estimate.point_estimate())
        .set("half_width", estimate.half_width());
    adaptive_width = std::max(adaptive_width, estimate.half_width());
  }
  rsb::bench::report_table(table);

  check(adaptive_width <= uniform_width,
        "adaptive sweep reaches the uniform sweep's accuracy (max "
        "half-width " + std::to_string(adaptive_width) + " <= " +
            std::to_string(uniform_width) + ")");
  check(adaptive.runs_spent < uniform_total,
        "and spends fewer runs doing it (" +
            std::to_string(adaptive.runs_spent) + " vs " +
            std::to_string(uniform_total) + " uniform)");
  check(adaptive.runs_spent * 10 <= uniform_total * 9,
        "the saving is measurable: adaptive spends <= 90% of the uniform "
        "budget (" + std::to_string(adaptive.runs_spent) + " / " +
            std::to_string(uniform_total) + ")");

  // --- determinism across threads ------------------------------------
  {
    Engine parallel;
    parallel.set_parallel({4, 0});
    const auto replay =
        run_grid_adaptive(parallel, adaptive_grid, budget, config);
    check(replay.schedule == adaptive.schedule,
          "the adaptive schedule is a pure function of the declaration "
          "(threads=4 plans the same installments)");
    check(replay.points == adaptive.points,
          "per-point stats and estimates are byte-identical across "
          "threads");
  }

  // --- throughput rows (single-thread, for the --baseline gate) --------
  const auto serial_rate = [](const std::string& name, std::uint64_t runs,
                              auto&& sweep) {
    return rsb::bench::time_runs(name, runs, 1, sweep);
  };
  serial_rate("adaptive sweep 6-point grid", adaptive.runs_spent, [&] {
    Engine fresh;
    benchmark::DoNotOptimize(
        run_grid_adaptive(fresh, adaptive_grid, budget, config));
  });
  serial_rate("uniform sweep 6-point grid", uniform_total, [&] {
    Engine fresh;
    benchmark::DoNotOptimize(run_grid(fresh, uniform_grid));
  });
}

void BM_AdaptiveSweep(benchmark::State& state) {
  const Grid grid = sweep_grid(kSeedsPerPoint);
  const AdaptiveConfig config{.pilot = 32, .rounds = 6, .z = 1.96,
                              .target_half_width = 0.05};
  const std::uint64_t budget = kSeedsPerPoint * grid.size();
  Engine engine;
  std::uint64_t spent = 0;
  for (auto _ : state) {
    const auto result = run_grid_adaptive(engine, grid, budget, config);
    spent = result.runs_spent;
    benchmark::DoNotOptimize(result.runs_spent);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spent));
}
BENCHMARK(BM_AdaptiveSweep);

void BM_AllocateAdaptiveRuns(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<SuccessEstimate> estimates(n);
  std::vector<std::uint64_t> capacity(n, 1000);
  for (std::size_t i = 0; i < n; ++i) {
    estimates[i].add(32 + i, (32 + i) / 2);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        allocate_adaptive_runs(estimates, capacity, 4096, 1.96, 0.0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AllocateAdaptiveRuns)->Arg(16)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  rsb::bench::consume_baseline_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_adaptive_grid();
  rsb::bench::footer("adaptive_grid");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rsb::bench::failure_count() == 0 ? 0 : 1;
}
