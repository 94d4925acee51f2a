// ParamGrid: declarative multi-axis experiment sweeps.
//
// Every result in the paper is a statement about ensembles swept across
// several axes at once — parties, source configuration, port adversary,
// protocol, rounds, seeds. A Grid declares those axes over a base
// Experiment and expands to the cartesian product of grid points, each a
// fully-formed spec plus its (axis, label) coordinates:
//
//   Grid grid(Experiment::message_passing(SourceConfiguration::from_loads(
//                 {2, 3}))
//                 .with_protocol("wait-for-singleton-LE")
//                 .with_task("leader-election"));
//   grid.over_policies({PortPolicy::kCyclic, PortPolicy::kAdversarial,
//                       PortPolicy::kRandomPerRun})
//       .over_rounds({100, 300})
//       .over_seeds(1, 1000);
//   std::vector<RunStats> results = run_grid(engine, grid);
//
// Expansion rules: the product is enumerated row-major with the FIRST
// declared axis slowest and the LAST fastest, and each point's spec is
// built by applying one entry per axis to a copy of the base spec, in
// axis declaration order. Axes that depend on the configuration (tasks by
// registry name, parties-dependent factories) must therefore be declared
// after the axis that sets the configuration. Expansion is a pure
// function of the declaration — the engine's ParallelConfig, thread
// scheduling, and prior runs never change the point order (pinned by
// tests/grid_test.cpp).
//
// run_grid executes every point's seed sweep on the engine's worker pool
// and yields one collector result per grid point, in expansion order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"

namespace rsb {

/// One cell of an expanded grid: the runnable spec plus its coordinates,
/// one (axis name, entry label) pair per declared axis, in declaration
/// order.
struct GridPoint {
  std::vector<std::pair<std::string, std::string>> coords;
  Experiment spec;

  /// "policy=cyclic rounds=300" — the coordinates joined for display.
  std::string label() const;
};

class Grid {
 public:
  /// Mutates a copy of the base spec into one axis entry's variant.
  using Apply = std::function<void(Experiment&)>;

  explicit Grid(Experiment base) : base_(std::move(base)) {}

  const Experiment& base() const noexcept { return base_; }

  /// The generic axis: `labels[i]` names the entry realized by
  /// `apply[i]`. The two vectors must be the same nonempty length.
  /// Returns *this for chaining; axes multiply.
  Grid& over(std::string axis, std::vector<std::string> labels,
             std::vector<Apply> apply);

  // --- canned axes over the common sweep dimensions ---------------------
  /// Source configurations, labelled by their load shape.
  Grid& over_configs(std::vector<SourceConfiguration> configs);
  /// from_loads shorthand for over_configs.
  Grid& over_loads(std::vector<std::vector<int>> loads);
  /// all_private(n) shorthand: n parties, each with its own source.
  Grid& over_parties(std::vector<int> parties);
  Grid& over_policies(std::vector<PortPolicy> policies);
  /// Protocols by registry name (resolved at declaration; throws
  /// UnknownName with the known names listed).
  Grid& over_protocols(std::vector<std::string> names);
  /// Tasks by registry name, resolved per point against the point's
  /// configuration — declare after any configuration axis. Graph-task
  /// names (mis, coloring, ...) bind to the point's topology, so declare
  /// after over_topologies too.
  Grid& over_tasks(std::vector<std::string> names);
  /// Topologies by generator name ("ring", "d-regular(3)", ...), built per
  /// point from the point's configuration and topology_seed — declare
  /// after any configuration axis and before any graph-task axis.
  Grid& over_topologies(std::vector<std::string> names);
  Grid& over_rounds(std::vector<int> rounds);
  Grid& over_port_seeds(std::vector<std::uint64_t> seeds);
  /// Crash counts t of a t-of-n fault sweep: each entry sets
  /// spec.faults.crashes (window and fault seed stay the base spec's, so
  /// declare with_faults first to sweep a non-default window). Labelled
  /// "t0", "t1", ...
  Grid& over_fault_counts(std::vector<int> counts);
  /// Delivery schedulers (sim/scheduler.hpp), labelled by their
  /// to_string(): e.g. "synchronous", "random-delay(3)", "starve{0}(4)".
  Grid& over_schedulers(std::vector<sim::SchedulerSpec> schedulers);

  /// Sets the seed range swept at every grid point (not an axis: it does
  /// not multiply the point count).
  Grid& over_seeds(std::uint64_t first, std::uint64_t count);

  /// Number of grid points (product of axis sizes; 1 with no axes).
  std::size_t size() const;

  /// Materializes every point, first axis slowest. Deterministic: equal
  /// declarations expand equally, whatever engine later runs the points.
  /// Point specs are not validated here — run_grid validates as it runs.
  std::vector<GridPoint> expand() const;

 private:
  struct Axis {
    std::string name;
    std::vector<std::string> labels;
    std::vector<Apply> apply;
  };

  Experiment base_;
  std::vector<Axis> axes_;
};

/// Runs every grid point's seed sweep through engine.run_collect with a
/// copy of the prototype collector, returning one result per point in
/// expansion order. Points run back to back on the engine's configured
/// worker pool, reusing its contexts throughout.
template <Collector C>
std::vector<C> run_grid(Engine& engine, const Grid& grid, const C& proto) {
  std::vector<C> results;
  results.reserve(grid.size());
  for (const GridPoint& point : grid.expand()) {
    results.push_back(engine.run_collect(point.spec, proto));
  }
  return results;
}

/// RunStats shorthand.
std::vector<RunStats> run_grid(Engine& engine, const Grid& grid);

// --------------------------------------------------------------- adaptive
//
// run_grid gives every point the same budget even when most points'
// success estimates converged long ago. run_grid_adaptive spends a shared
// run pool where the variance is: a fixed pilot sweep per point, then
// `rounds` allocation rounds that split the remaining budget across
// points proportionally to their Wilson CI half-widths (wide interval =
// more runs) under a deterministic largest-remainder integer rule.
//
// Determinism: the full (point, seed range) schedule is a pure function
// of (grid declaration, total budget, config). Every installment runs a
// contiguous seed range through Engine::run_collect_range, which
// repositions the port stream so resumed ranges are draw-for-draw
// identical to one long sweep — so per-point results are byte-identical
// across thread counts AND prefix-identical to the uniform
// run_grid of the same seed count (both pinned by
// tests/adaptive_grid_test.cpp).

/// Tuning for run_grid_adaptive. Defaults favor grids of dozens of
/// points with budgets in the thousands.
struct AdaptiveConfig {
  /// Runs every point gets unconditionally before any allocation — the
  /// variance estimate the first round allocates by. Must be >= 1 and
  /// <= every point's declared seeds.count.
  std::uint64_t pilot = 32;
  /// Allocation rounds after the pilot. More rounds track convergence
  /// more closely at the cost of shorter (less parallel) installments.
  int rounds = 4;
  /// Critical value for the Wilson intervals (1.96 = 95%).
  double z = 1.96;
  /// Points whose half-width is already <= this get no further budget;
  /// when every point is converged the sweep stops early, leaving the
  /// rest of the budget unspent. 0 = no target, spend the whole budget.
  double target_half_width = 0.0;
};

/// One installment of the adaptive schedule: `range` seeds swept at grid
/// point `point` (expansion index). The concatenation of a point's ranges
/// is contiguous from its first seed.
struct AdaptiveAssignment {
  std::size_t point = 0;
  SeedRange range;

  friend bool operator==(const AdaptiveAssignment&,
                         const AdaptiveAssignment&) = default;
};

/// Outcome of an adaptive sweep.
struct AdaptiveGridResult {
  /// Per point, in expansion order: the merged stats of every run spent
  /// there (`runs` is the point's spend; success_estimate reads its
  /// estimate).
  std::vector<RunStats> points;
  std::vector<AdaptiveAssignment> schedule;  // execution order
  std::uint64_t budget = 0;      // the requested total
  std::uint64_t runs_spent = 0;  // <= budget; < only on early convergence
  int rounds_executed = 0;       // allocation rounds run after the pilot
};

/// The deterministic allocation rule: splits `round_budget` runs across
/// points proportionally to their Wilson half-widths at `z`, capped per
/// point by `capacity` (remaining seed-range headroom). Points at zero
/// capacity — or already at/below `target_half_width` when a target is
/// set — get nothing. Integerization is largest-remainder (Hamilton):
/// floor the proportional quotas, then hand out the leftover one run at a
/// time by descending fractional remainder, ties broken by point index;
/// capacity freed by clamping is refilled in descending-weight order. The
/// result is a pure function of the arguments (no RNG, no iteration-order
/// dependence), so adaptive schedules reproduce bit-for-bit.
std::vector<std::uint64_t> allocate_adaptive_runs(
    const std::vector<SuccessEstimate>& estimates,
    const std::vector<std::uint64_t>& capacity, std::uint64_t round_budget,
    double z, double target_half_width);

/// The adaptive round loop, for any caller that executes installments
/// itself: run_grid_adaptive steps it on an Engine, and rsbd steps it
/// chunk by chunk between other clients' work. Each call to next_round()
/// hands out one round — the pilot first, then each allocation round —
/// as installments in point order; the caller executes them, passes each
/// one's RunStats to record(), and asks for the next round once all of
/// them are recorded. An empty round ends the sweep. Point p's
/// installments are contiguous from seeds[p].first and never pass
/// seeds[p].count, so a point that ends with k runs is byte-identical to a
/// uniform sweep of its first k seeds.
class AdaptiveSchedule {
 public:
  /// `seeds[p]` is point p's declared seed range. Throws InvalidArgument,
  /// checked in this order, when the config is out of range, the pilot
  /// exceeds some point's seed count, `budget` cannot cover points x
  /// pilot, or `budget` exceeds the points' total seed capacity.
  AdaptiveSchedule(std::vector<SeedRange> seeds, std::uint64_t budget,
                   const AdaptiveConfig& config = {});

  /// The next round's installments, in point order; empty once the budget
  /// or the rounds are spent, or every point is converged or capped.
  std::vector<AdaptiveAssignment> next_round();

  /// Folds one executed installment of `point` into its success estimate.
  void record(std::size_t point, const RunStats& stats);

  /// Allocation rounds handed out after the pilot.
  int rounds_executed() const noexcept { return rounds_executed_; }

 private:
  std::vector<SeedRange> seeds_;
  std::uint64_t budget_ = 0;
  AdaptiveConfig config_;
  std::vector<SuccessEstimate> estimates_;
  std::vector<std::uint64_t> planned_;  // runs handed out, per point
  bool piloted_ = false;
  int rounds_begun_ = 0;  // allocation rounds consumed, skipped ones too
  int rounds_executed_ = 0;
};

/// Adaptive counterpart of run_grid: sweeps the grid under a shared
/// `total_budget` run pool by stepping an AdaptiveSchedule (and its checks)
/// over the points' declared seed ranges, executing every installment
/// through Engine::run_collect_range.
AdaptiveGridResult run_grid_adaptive(Engine& engine, const Grid& grid,
                                     std::uint64_t total_budget,
                                     const AdaptiveConfig& config = {});

}  // namespace rsb
