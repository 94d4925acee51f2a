// Run-by-run inspection of an engine sweep, through collectors alone.
//
// Engine::drive is the engine's only sweep scheduler: every scheduling
// chunk observes into its own collector shard, and the shards merge in
// chunk-index order. replay_runs builds its collector from the public
// pieces — fold_collector appends a copy of each run a shard sees (its
// wiring included, since a kRandomPerRun wiring lives in the port
// provider's storage that the next run redraws) and CombineCollectors
// folds RunStats beside it — so the merged record list is in run-index
// order under every thread count, batch width and stealing order. It then
// replays the records to a callback on the calling thread, one run at a
// time. The records hold outcomes only: in an agent batch the run's
// network and agents are gone before any collector sees the outcome.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "engine/collector.hpp"
#include "engine/engine.hpp"

namespace rsb::testing {

/// Sweeps `spec` on `engine` and hands every run to fn(view, outcome) in
/// run-index order after the sweep; returns the sweep's RunStats.
template <typename Fn>
RunStats replay_runs(Engine& engine, const Experiment& spec, Fn&& fn) {
  struct Record {
    std::uint64_t seed = 0;
    std::uint64_t run_index = 0;
    std::optional<PortAssignment> ports;
    ProtocolOutcome outcome;
  };
  auto records = fold_collector(
      std::vector<Record>{},
      [](std::vector<Record>& shard, const RunView& view,
         const ProtocolOutcome& outcome) {
        shard.push_back({view.seed, view.run_index,
                         view.ports != nullptr
                             ? std::optional<PortAssignment>(*view.ports)
                             : std::nullopt,
                         outcome});
      },
      [](std::vector<Record>& merged, std::vector<Record> shard) {
        merged.insert(merged.end(), std::make_move_iterator(shard.begin()),
                      std::make_move_iterator(shard.end()));
      });
  auto sweep = engine.run_collect(
      spec, CombineCollectors(RunStats{}, std::move(records)));
  for (const Record& run : sweep.template part<1>().state()) {
    fn(RunView{run.seed, run.run_index,
               run.ports.has_value() ? &*run.ports : nullptr, &spec},
       run.outcome);
  }
  return sweep.template part<0>();
}

}  // namespace rsb::testing
