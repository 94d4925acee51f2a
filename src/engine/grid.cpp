#include "engine/grid.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "engine/registry.hpp"
#include "util/error.hpp"

namespace rsb {

namespace {

std::string loads_label(const SourceConfiguration& config) {
  std::string out = "{";
  const std::vector<int> loads = config.loads();
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(loads[i]);
  }
  return out + "}";
}

/// A canned axis over `values`: entry i is labelled label(values[i]) and
/// realized by set(spec, values[i]) on each point's copy of the base spec.
template <typename T, typename Label, typename Set>
Grid& canned_axis(Grid& grid, std::string name, std::vector<T> values,
                  const Label& label, const Set& set) {
  std::vector<std::string> labels;
  std::vector<Grid::Apply> apply;
  labels.reserve(values.size());
  apply.reserve(values.size());
  for (T& value : values) {
    labels.push_back(label(value));
    apply.push_back([value = std::move(value), set](Experiment& spec) {
      set(spec, value);
    });
  }
  return grid.over(std::move(name), std::move(labels), std::move(apply));
}

/// Labels an integer entry by its decimal spelling.
constexpr auto decimal = [](auto value) { return std::to_string(value); };
/// Labels a registry-name entry by the name itself.
constexpr auto verbatim = [](const std::string& name) { return name; };

}  // namespace

std::string GridPoint::label() const {
  std::string out;
  for (const auto& [axis, value] : coords) {
    if (!out.empty()) out += " ";
    out += axis + "=" + value;
  }
  return out;
}

Grid& Grid::over(std::string axis, std::vector<std::string> labels,
                 std::vector<Apply> apply) {
  if (labels.empty() || labels.size() != apply.size()) {
    throw InvalidArgument("Grid::over('" + axis +
                          "'): labels and apply must be the same nonempty "
                          "length (got " +
                          std::to_string(labels.size()) + " labels, " +
                          std::to_string(apply.size()) + " apply entries)");
  }
  // A null std::function would pass the length check and crash inside
  // expand() (std::bad_function_call) with no hint which axis was broken.
  for (std::size_t i = 0; i < apply.size(); ++i) {
    if (!apply[i]) {
      throw InvalidArgument("Grid::over('" + axis + "'): apply entry " +
                            std::to_string(i) + " ('" + labels[i] +
                            "') is a null function");
    }
  }
  axes_.push_back(Axis{std::move(axis), std::move(labels), std::move(apply)});
  return *this;
}

Grid& Grid::over_configs(std::vector<SourceConfiguration> configs) {
  return canned_axis(*this, "loads", std::move(configs), loads_label,
                     [](Experiment& spec, const SourceConfiguration& config) {
                       spec.config = config;
                     });
}

Grid& Grid::over_loads(std::vector<std::vector<int>> loads) {
  std::vector<SourceConfiguration> configs;
  configs.reserve(loads.size());
  for (const std::vector<int>& shape : loads) {
    configs.push_back(SourceConfiguration::from_loads(shape));
  }
  return over_configs(std::move(configs));
}

Grid& Grid::over_parties(std::vector<int> parties) {
  return canned_axis(*this, "parties", std::move(parties), decimal,
                     [](Experiment& spec, int n) {
                       spec.config = SourceConfiguration::all_private(n);
                     });
}

Grid& Grid::over_policies(std::vector<PortPolicy> policies) {
  return canned_axis(
      *this, "policy", std::move(policies),
      [](PortPolicy policy) { return to_string(policy); },
      [](Experiment& spec, PortPolicy policy) { spec.port_policy = policy; });
}

Grid& Grid::over_protocols(std::vector<std::string> names) {
  // Resolve at declaration: unknown names fail fast, and every point of
  // the axis shares one (stateless, const) protocol instance.
  using Named =
      std::pair<std::string, std::shared_ptr<const AnonymousProtocol>>;
  std::vector<Named> protocols;
  protocols.reserve(names.size());
  for (std::string& name : names) {
    auto protocol = make_protocol(name);
    protocols.emplace_back(std::move(name), std::move(protocol));
  }
  return canned_axis(
      *this, "protocol", std::move(protocols),
      [](const Named& named) { return named.first; },
      [](Experiment& spec, const Named& named) {
        spec.protocol = named.second;
      });
}

Grid& Grid::over_tasks(std::vector<std::string> names) {
  // Resolved at expansion so the task binds to the point's (possibly
  // axis-set) configuration.
  return canned_axis(
      *this, "task", std::move(names), verbatim,
      [](Experiment& spec, const std::string& name) { spec.with_task(name); });
}

Grid& Grid::over_topologies(std::vector<std::string> names) {
  // Resolved at expansion so the graph binds to the point's (possibly
  // axis-set) configuration and topology seed.
  return canned_axis(*this, "topology", std::move(names), verbatim,
                     [](Experiment& spec, const std::string& name) {
                       spec.with_topology(name);
                     });
}

Grid& Grid::over_rounds(std::vector<int> rounds) {
  return canned_axis(
      *this, "rounds", std::move(rounds), decimal,
      [](Experiment& spec, int budget) { spec.max_rounds = budget; });
}

Grid& Grid::over_port_seeds(std::vector<std::uint64_t> seeds) {
  return canned_axis(
      *this, "port-seed", std::move(seeds), decimal,
      [](Experiment& spec, std::uint64_t seed) { spec.port_seed = seed; });
}

Grid& Grid::over_fault_counts(std::vector<int> counts) {
  return canned_axis(
      *this, "faults", std::move(counts),
      [](int t) { return "t" + std::to_string(t); },
      [](Experiment& spec, int t) { spec.faults.crashes = t; });
}

Grid& Grid::over_schedulers(std::vector<sim::SchedulerSpec> schedulers) {
  return canned_axis(
      *this, "scheduler", std::move(schedulers),
      [](const sim::SchedulerSpec& scheduler) { return scheduler.to_string(); },
      [](Experiment& spec, const sim::SchedulerSpec& scheduler) {
        spec.scheduler = scheduler;
      });
}

Grid& Grid::over_seeds(std::uint64_t first, std::uint64_t count) {
  base_.with_seeds(first, count);
  return *this;
}

std::size_t Grid::size() const {
  std::size_t product = 1;
  for (const Axis& axis : axes_) product *= axis.labels.size();
  return product;
}

std::vector<GridPoint> Grid::expand() const {
  std::vector<GridPoint> points;
  points.reserve(size());
  std::vector<std::size_t> index(axes_.size(), 0);
  while (true) {
    GridPoint point{{}, base_};
    point.coords.reserve(axes_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const Axis& axis = axes_[a];
      point.coords.emplace_back(axis.name, axis.labels[index[a]]);
      axis.apply[index[a]](point.spec);
    }
    points.push_back(std::move(point));
    // Odometer increment, last axis fastest; done on full carry-out.
    std::size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++index[a] < axes_[a].labels.size()) break;
      index[a] = 0;
      if (a == 0) return points;
    }
    if (axes_.empty()) return points;
  }
}

std::vector<RunStats> run_grid(Engine& engine, const Grid& grid) {
  return run_grid(engine, grid, RunStats{});
}

std::vector<std::uint64_t> allocate_adaptive_runs(
    const std::vector<SuccessEstimate>& estimates,
    const std::vector<std::uint64_t>& capacity, std::uint64_t round_budget,
    double z, double target_half_width) {
  if (estimates.size() != capacity.size()) {
    throw InvalidArgument(
        "allocate_adaptive_runs: estimates and capacity must be the same "
        "length (" +
        std::to_string(estimates.size()) + " vs " +
        std::to_string(capacity.size()) + ")");
  }
  const std::size_t n = estimates.size();
  std::vector<std::uint64_t> alloc(n, 0);
  if (round_budget == 0 || n == 0) return alloc;

  // Eligibility and weights: a point's weight is its Wilson half-width;
  // capped-out points and (under a target) converged points weigh zero.
  std::vector<double> weight(n, 0.0);
  double total_weight = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (capacity[i] == 0) continue;
    const double h = estimates[i].half_width(z);
    if (target_half_width > 0.0 && h <= target_half_width) continue;
    weight[i] = h;
    total_weight += weight[i];
  }
  if (total_weight <= 0.0) return alloc;  // nothing eligible

  // Largest remainder: floor the proportional quotas (clamped to both the
  // point's capacity and the budget still unassigned), remembering each
  // uncapped point's fractional remainder.
  struct Remainder {
    double frac = 0.0;
    std::size_t index = 0;
  };
  std::vector<Remainder> remainders;
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (weight[i] <= 0.0) continue;
    const double ideal =
        static_cast<double>(round_budget) * weight[i] / total_weight;
    std::uint64_t base = static_cast<std::uint64_t>(ideal);  // floor
    base = std::min({base, capacity[i], round_budget - assigned});
    alloc[i] = base;
    assigned += base;
    if (alloc[i] < capacity[i]) {
      remainders.push_back(Remainder{ideal - std::floor(ideal), i});
    }
  }

  // Hand the leftover out one run at a time by descending fractional
  // remainder, ties broken by point index — fully ordered, so the result
  // never depends on sort stability or container iteration order.
  std::sort(remainders.begin(), remainders.end(),
            [](const Remainder& a, const Remainder& b) {
              if (a.frac != b.frac) return a.frac > b.frac;
              return a.index < b.index;
            });
  for (const Remainder& r : remainders) {
    if (assigned >= round_budget) break;
    if (alloc[r.index] < capacity[r.index]) {
      ++alloc[r.index];
      ++assigned;
    }
  }

  // Capacity clamps can leave budget over even after the remainder pass;
  // refill in descending-weight order (ties by index) until the budget or
  // every eligible point's capacity is exhausted.
  if (assigned < round_budget) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < n; ++i) {
      if (weight[i] > 0.0) order.push_back(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (weight[a] != weight[b]) return weight[a] > weight[b];
                return a < b;
              });
    for (const std::size_t i : order) {
      const std::uint64_t give =
          std::min(capacity[i] - alloc[i], round_budget - assigned);
      alloc[i] += give;
      assigned += give;
      if (assigned == round_budget) break;
    }
  }
  return alloc;
}

AdaptiveSchedule::AdaptiveSchedule(std::vector<SeedRange> seeds,
                                   std::uint64_t budget,
                                   const AdaptiveConfig& config)
    : seeds_(std::move(seeds)),
      budget_(budget),
      config_(config),
      estimates_(seeds_.size()),
      planned_(seeds_.size()) {
  if (config.pilot < 1) {
    throw InvalidArgument("adaptive sweep: pilot must be >= 1");
  }
  if (config.rounds < 1) {
    throw InvalidArgument("adaptive sweep: rounds must be >= 1");
  }
  if (!(config.z > 0.0)) {
    throw InvalidArgument("adaptive sweep: z must be > 0");
  }
  if (config.target_half_width < 0.0) {
    throw InvalidArgument("adaptive sweep: target_half_width must be >= 0");
  }
  for (const SeedRange& range : seeds_) {
    if (range.count < config.pilot) {
      throw InvalidArgument("adaptive sweep: pilot=" +
                            std::to_string(config.pilot) +
                            " exceeds the per-point seed count " +
                            std::to_string(range.count));
    }
  }
  const std::string points = std::to_string(seeds_.size()) + " points";
  // budget < points x pilot, without forming the product.
  if (budget / config.pilot < seeds_.size()) {
    throw InvalidArgument("adaptive sweep: budget=" + std::to_string(budget) +
                          " cannot cover the pilot (" + points +
                          " x pilot=" + std::to_string(config.pilot) + ")");
  }
  // The capacity stops growing at the budget, so the sum cannot wrap.
  std::uint64_t capacity = 0;
  for (const SeedRange& range : seeds_) {
    capacity += std::min(range.count, budget - capacity);
  }
  if (capacity < budget) {
    throw InvalidArgument("adaptive sweep: budget=" + std::to_string(budget) +
                          " exceeds the points' seed capacity (" + points +
                          ", " + std::to_string(capacity) + " seeds)");
  }
}

std::vector<AdaptiveAssignment> AdaptiveSchedule::next_round() {
  std::vector<std::uint64_t> alloc;
  if (!piloted_) {
    piloted_ = true;
    alloc.assign(seeds_.size(), config_.pilot);
  }
  while (alloc.empty() && rounds_begun_ < config_.rounds) {
    // Even integer split of what is left across the remaining rounds; the
    // last round absorbs every remainder, so a targetless sweep always
    // spends the full budget.
    std::uint64_t left = budget_;
    for (const std::uint64_t runs : planned_) left -= runs;
    const std::uint64_t round_budget =
        left / static_cast<std::uint64_t>(config_.rounds - rounds_begun_++);
    if (round_budget == 0) continue;
    std::vector<std::uint64_t> capacity(seeds_.size());
    for (std::size_t p = 0; p < seeds_.size(); ++p) {
      capacity[p] = seeds_[p].count - planned_[p];
    }
    alloc = allocate_adaptive_runs(estimates_, capacity, round_budget,
                                   config_.z, config_.target_half_width);
    if (std::all_of(alloc.begin(), alloc.end(),
                    [](std::uint64_t runs) { return runs == 0; })) {
      // Every point converged or at capacity: the sweep is over.
      rounds_begun_ = config_.rounds;
      return {};
    }
    ++rounds_executed_;
  }
  std::vector<AdaptiveAssignment> round;
  for (std::size_t p = 0; p < alloc.size(); ++p) {
    if (alloc[p] == 0) continue;
    round.push_back(AdaptiveAssignment{
        p, SeedRange::of(seeds_[p].first + planned_[p], alloc[p])});
    planned_[p] += alloc[p];
  }
  return round;
}

void AdaptiveSchedule::record(std::size_t point, const RunStats& stats) {
  const SuccessEstimate shard = success_estimate(stats);
  estimates_[point].add(shard.n, shard.successes);
}

AdaptiveGridResult run_grid_adaptive(Engine& engine, const Grid& grid,
                                     std::uint64_t total_budget,
                                     const AdaptiveConfig& config) {
  const std::vector<GridPoint> points = grid.expand();
  std::vector<SeedRange> seeds;
  seeds.reserve(points.size());
  for (const GridPoint& point : points) seeds.push_back(point.spec.seeds);
  AdaptiveSchedule schedule(std::move(seeds), total_budget, config);

  AdaptiveGridResult out;
  out.budget = total_budget;
  out.points.resize(points.size());
  for (std::vector<AdaptiveAssignment> round = schedule.next_round();
       !round.empty(); round = schedule.next_round()) {
    for (const AdaptiveAssignment& slot : round) {
      const RunStats shard = engine.run_collect_range(
          points[slot.point].spec, slot.range, RunStats{});
      schedule.record(slot.point, shard);
      out.points[slot.point].merge(shard);
      out.runs_spent += slot.range.count;
      out.schedule.push_back(slot);
    }
  }
  out.rounds_executed = schedule.rounds_executed();
  return out;
}

}  // namespace rsb
