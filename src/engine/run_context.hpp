// Per-run mutable state and the free-standing run functions.
//
// A RunContext is everything one worker's runs mutate: one run's
// KnowledgeStore intern table, knowledge column, coin engines, crash
// schedule and outcome, the round and decision scratch, and the store's
// high-water diagnostic. It is a plain value: the Engine's scheduler gives
// every worker its own, so any worker can execute any (spec, seed) pair
// independently.
//
// The determinism contract (DESIGN.md, "Concurrency model"): run_prepared
// is a pure function of (spec, seed, ports). The context only recycles
// allocations and never leaks state between runs, because the store, the
// coins and the outcome are reset to observational freshness at the top of
// every run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/experiment.hpp"
#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "sim/payload.hpp"
#include "util/rng.hpp"

namespace rsb {

/// The per-run scratch state of one worker. Default-constructed contexts
/// are ready to use; reuse across runs amortizes all allocations.
struct RunContext {
  // --- the current knowledge-backend run (run_prepared) ----------------
  KnowledgeStore store;
  std::vector<KnowledgeId> knowledge;
  /// One raw engine per source, seeded like the SourceBank's: drawing one
  /// next_bit per source per executed round replays the bank's stream
  /// draw-for-draw (the bank extends all sources by one bit per round),
  /// without the bank's emitted-history buffers.
  std::vector<Xoshiro256StarStar> coins;
  /// The run's crash schedule (empty when fault-free); the agent backend
  /// draws its fault schedule here too.
  std::vector<int> crash_round;
  ProtocolOutcome outcome;

  // --- round and decision scratch, overwritten every round -------------
  std::vector<std::uint8_t> source_bits;  // one coin bit per source
  std::vector<std::uint8_t> bits;         // the same bits, one per party
  /// The protocol rule's verdicts, one per position of sorted_prev, and
  /// the same verdicts indexed by id − sorted_prev.front().
  std::vector<std::int64_t> verdicts;
  std::vector<std::int64_t> verdict_of;
  // Sorted copy of a fault-free run's knowledge vector before a round: the
  // time-(t−1) multiset the protocol's rule (decide_multiset) decides on
  // and, on the blackboard, the round operator's shared multiset — one
  // counting pass per round serves both. `counts` is that pass's per-id
  // tally over the round's id range.
  std::vector<KnowledgeId> sorted_prev;
  std::vector<std::uint32_t> counts;
  RoundScratch round_scratch;  // in-place round-operator buffers

  std::size_t store_high_water = 0;
  sim::PayloadArena arena;  // agent-backend payload pool (lent to each
                            // run's sim::Network)
};

/// One knowledge-level run of `spec` at `seed` over `ports` (null on the
/// blackboard). This is the knowledge backend's only executor. The result
/// is ctx.outcome, returned by reference and valid until the next run on
/// `ctx`. `ports` is read during the call only, so it may point into a
/// PortProvider's latest draw. Under a fault plan the crash schedule is
/// drawn from the plan's per-run seed stream (a pure function of (spec,
/// seed), so no skip-ahead is needed under parallelism) and reported back
/// in the outcome's crash_round.
const ProtocolOutcome& run_prepared(RunContext& ctx, const Experiment& spec,
                                    std::uint64_t seed,
                                    const PortAssignment* ports);

/// One agent-level run of `spec` at `seed` through a fresh sim::Network,
/// under the spec's scheduler and fault plan. The network owns its own
/// state; `ctx` only lends the fault-draw scratch vector. Deterministic in
/// (spec, seed, ports).
ProtocolOutcome run_agent_prepared(RunContext& ctx, const Experiment& spec,
                                   std::uint64_t seed,
                                   const PortAssignment* ports);

/// Per-batch port provider: materializes the port policy once (fixed
/// policies) or per run (kRandomPerRun, drawn from the port_seed stream).
/// next() yields the assignment for run 0, 1, 2, ... in order; skip_to()
/// repositions the provider so a worker can jump to any chunk while
/// consuming the rng draw-for-draw as the serial sweep would — the wiring
/// of run i is independent of which worker executes it, and of the order
/// the work-stealing scheduler hands chunks out. The rng state is
/// checkpointed every kCheckpointStride runs as the stream advances, so a
/// backward jump (a stolen chunk behind the worker's cursor) restores the
/// nearest checkpoint and replays at most a stride of draws — rewinds
/// stay O(stride), not O(run_index), however often the deque steals.
class PortProvider {
 public:
  PortProvider(Model model, PortPolicy policy,
               const std::optional<PortAssignment>& fixed,
               const SourceConfiguration& config, std::uint64_t port_seed);

  /// The assignment for the next run; null for blackboard runs. Points
  /// into the provider: a kRandomPerRun draw is redrawn in place
  /// (PortAssignment::redraw_random), so the pointee changes at the next
  /// call.
  const PortAssignment* next();

  /// Repositions so that the following next() yields the assignment of
  /// run `run_index` (forwards or backwards).
  void skip_to(std::uint64_t run_index);

 private:
  static constexpr std::uint64_t kCheckpointStride = 1024;

  /// Records checkpoints_[produced_ / stride] when the cursor sits on a
  /// stride boundary it has not checkpointed yet (kRandomPerRun only).
  void maybe_checkpoint();
  /// Consumes one run's worth of stream (kRandomPerRun), checkpointing.
  void advance_one();

  PortPolicy policy_;
  Xoshiro256StarStar rng_;
  int num_parties_ = 0;
  std::uint64_t produced_ = 0;  // runs whose assignment has been drawn
  std::optional<PortAssignment> current_;
  std::vector<int> link_scratch_;  // redraw_random's row-check scratch
  std::vector<Xoshiro256StarStar> checkpoints_;  // state at k*stride
};

}  // namespace rsb
