// Composable, mergeable per-run collectors — the aggregation layer of the
// experiment engine (API v2).
//
// A Collector is any copyable type with
//
//   void observe(const RunView&, const ProtocolOutcome&);   // fold one run
//   void merge(Collector&&);                                // pool a shard
//
// where merge is associative and observe/merge commute the way sums do:
// observing runs {A} into one shard and {B} into another, then merging,
// must equal observing {A ∪ B} into a single collector in run order. Under
// Engine::run_collect each scheduling chunk owns its own shard (a copy of
// the empty prototype), which observes only that chunk's runs — no
// locking, no outcome buffering — and the engine merges the shards in
// chunk-index (= run-index) order, so any merge-order-sensitive state is
// still reproducible. Because every run is a pure function of (spec, seed,
// ports), a collector whose merge is truly associative produces
// byte-identical results at every thread count (pinned by
// tests/collector_test.cpp).
//
// RunStats (engine/experiment.hpp) is the built-in default collector;
// CombineCollectors composes several collectors into one pass over the
// batch; FoldCollector lifts a plain fold function over a mergeable state
// into a collector, which is how benches build custom columns without
// re-rolling the sweep loop.
#pragma once

#include <concepts>
#include <cstdint>
#include <tuple>
#include <utility>

#include "algo/protocol.hpp"
#include "model/port_assignment.hpp"

namespace rsb {

struct Experiment;
struct RunStats;

/// Per-run context handed to Collector::observe. The pointers are valid
/// only during that call (`ports` may point into the port provider's
/// latest draw, which the next run redraws), so a collector that keeps
/// runs copies what it needs.
/// In an agent batch the run's sim::Network and its agents are destroyed
/// before observe is called: bank per-run agent diagnostics out of the
/// agent before teardown, atomically, since agents run concurrently on the
/// workers under threads > 1.
struct RunView {
  std::uint64_t seed = 0;
  std::uint64_t run_index = 0;             // 0-based within the batch
  const PortAssignment* ports = nullptr;   // null for blackboard runs
  const Experiment* experiment = nullptr;  // the spec being swept
};

/// The collector concept: copyable (chunk shards are copies of the empty
/// prototype), folds runs in via observe, pools shards via an associative
/// merge.
template <typename C>
concept Collector =
    std::copy_constructible<C> &&
    requires(C collector, C shard, const RunView& view,
             const ProtocolOutcome& outcome) {
      collector.observe(view, outcome);
      collector.merge(std::move(shard));
    };

/// Bernoulli success-rate estimator: runs and successes, with Wilson
/// score confidence intervals — what the adaptive schedule
/// (engine/grid.hpp) allocates budget by. The Wilson interval stays honest
/// at the edges the sweeps actually produce (p near 0 or 1, tiny n) where
/// the normal approximation collapses to zero width. n = 0 reports the
/// total-ignorance interval [0, 1].
struct SuccessEstimate {
  std::uint64_t n = 0;          // runs observed
  std::uint64_t successes = 0;  // runs that met the success criterion

  /// Counter injection: `runs` more runs, `wins` of them successes.
  void add(std::uint64_t runs, std::uint64_t wins) {
    n += runs;
    successes += wins;
  }

  /// successes / n; 0.5 (the center of [0, 1]) when n = 0.
  double point_estimate() const;
  /// Wilson score interval half-width at critical value `z`; 0.5 when
  /// n = 0 (the interval is all of [0, 1]).
  double half_width(double z = 1.96) const;
  double ci_lo(double z = 1.96) const;
  double ci_hi(double z = 1.96) const;

  friend bool operator==(const SuccessEstimate&,
                         const SuccessEstimate&) = default;
};

/// The success rule, read off a sweep's stats: a run succeeds when it
/// terminated and, if the spec carries a task, the task admits its outputs
/// (survivors only on faulty runs) — RunStats::task_successes when a task
/// was checked, RunStats::terminated otherwise.
SuccessEstimate success_estimate(const RunStats& stats);

/// Runs several collectors over one batch in a single pass. Each part
/// observes every run; merge is part-wise (and therefore associative iff
/// every part's merge is). Access the parts by index after the batch:
///
///   auto [stats, tally] =
///       engine.run_collect(spec, CombineCollectors(RunStats{}, my_tally))
///           .parts();
template <Collector... Cs>
class CombineCollectors {
 public:
  CombineCollectors() = default;
  explicit CombineCollectors(Cs... parts) : parts_(std::move(parts)...) {}

  void observe(const RunView& view, const ProtocolOutcome& outcome) {
    std::apply([&](Cs&... part) { (part.observe(view, outcome), ...); },
               parts_);
  }

  void merge(CombineCollectors&& other) {
    merge_parts(std::move(other), std::index_sequence_for<Cs...>{});
  }

  template <std::size_t I>
  auto& part() {
    return std::get<I>(parts_);
  }
  template <std::size_t I>
  const auto& part() const {
    return std::get<I>(parts_);
  }

  /// The whole tuple, for structured bindings.
  std::tuple<Cs...>& parts() { return parts_; }
  const std::tuple<Cs...>& parts() const { return parts_; }

 private:
  template <std::size_t... Is>
  void merge_parts(CombineCollectors&& other, std::index_sequence<Is...>) {
    (std::get<Is>(parts_).merge(std::move(std::get<Is>(other.parts_))), ...);
  }

  std::tuple<Cs...> parts_;
};

/// Lifts a fold over a plain mergeable state into a collector:
/// `observe_fn(state, view, outcome)` folds one run in, `merge_fn(state,
/// shard_state)` pools two states. The caller promises the same
/// associativity contract as for any collector — for the common case of
/// counters and sums this is automatic.
///
///   auto leaders = fold_collector(std::uint64_t{0},
///       [](std::uint64_t& n, const RunView&, const ProtocolOutcome& o) {
///         for (auto v : o.outputs) n += v == 1;
///       },
///       [](std::uint64_t& n, std::uint64_t other) { n += other; });
template <typename State, typename ObserveFn, typename MergeFn>
class FoldCollector {
 public:
  FoldCollector(State initial, ObserveFn observe_fn, MergeFn merge_fn)
      : state_(std::move(initial)),
        observe_(std::move(observe_fn)),
        merge_(std::move(merge_fn)) {}

  void observe(const RunView& view, const ProtocolOutcome& outcome) {
    observe_(state_, view, outcome);
  }

  void merge(FoldCollector&& other) {
    merge_(state_, std::move(other.state_));
  }

  State& state() { return state_; }
  const State& state() const { return state_; }

 private:
  State state_;
  ObserveFn observe_;
  MergeFn merge_;
};

template <typename State, typename ObserveFn, typename MergeFn>
FoldCollector<State, ObserveFn, MergeFn> fold_collector(State initial,
                                                        ObserveFn observe_fn,
                                                        MergeFn merge_fn) {
  return FoldCollector<State, ObserveFn, MergeFn>(
      std::move(initial), std::move(observe_fn), std::move(merge_fn));
}

}  // namespace rsb
