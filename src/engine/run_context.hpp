// Per-run mutable state and the free-standing run functions.
//
// A RunContext is everything one worker's runs mutate — the lockstep lane
// state (per-lane KnowledgeStore intern tables and coin engines), the
// shared round scratch, and the stores' high-water diagnostic. It is a
// plain value: the Engine's scheduler gives every worker its own, so any
// worker can execute any (spec, seed) pair independently.
//
// The determinism contract (DESIGN.md, "Concurrency model"): every lane of
// run_prepared_batch is a pure function of (spec, seed, ports) — the
// context only recycles allocations, never leaks state between runs,
// because each lane's store and coins are reset to observational freshness
// at the top of every batch. KnowledgeIds are lane-local: an id produced
// in one lane's store must never be compared with, or looked up in,
// another store.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/orbit.hpp"
#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "sim/payload.hpp"
#include "util/rng.hpp"

namespace rsb {

class PortProvider;

/// One lane's worth of input to the span form of run_prepared_batch: the
/// run seed plus its port wiring (null on the blackboard). The pointee
/// must stay valid for the whole batch — callers point into storage they
/// own (lane ports_storage, an OrbitProbe's wiring copy, or the provider
/// whose latest draw is the batch's last lane).
struct LaneRequest {
  std::uint64_t seed = 0;
  const PortAssignment* ports = nullptr;
};

/// Structure-of-arrays state for lockstep batched execution
/// (run_prepared_batch): B lanes of one spec advance through a shared
/// round schedule, each lane owning exactly the per-run state that
/// determines ids and outcomes — its KnowledgeStore (ids are store-local,
/// so lanes can never share one), knowledge column, raw coin engines, and
/// crash schedule. Round scratch and the decision buffers are shared
/// across lanes: a round operator finishes with one lane before the next
/// lane starts, and every shared buffer is overwritten at entry, so
/// nothing leaks between lanes (byte-identity across widths, and to an
/// independent per-run reference, is pinned by the batch property laws).
struct BatchedRunContext {
  struct Lane {
    KnowledgeStore store;
    std::vector<KnowledgeId> knowledge;
    std::vector<int> crash_round;
    /// One raw engine per source, seeded like the SourceBank's: drawing
    /// one next_bit per source per executed round replays the bank's
    /// stream draw-for-draw (the bank extends all sources by one bit per
    /// round), without the bank's emitted-history buffers.
    std::vector<Xoshiro256StarStar> coins;
    std::optional<PortAssignment> ports_storage;  // kRandomPerRun copy
    const PortAssignment* ports = nullptr;
    ProtocolOutcome outcome;
    int undecided = 0;
    /// Rounds of source bits this lane drew — the run's consumed-prefix
    /// length, the level an orbit memo entry lives at (engine/orbit.hpp).
    int consumed = 0;
    bool faulty = false;
    bool done = false;
  };
  std::vector<Lane> lanes;
  /// Scratch for the provider-driven wrapper's span of lane inputs; the
  /// orbit-deduped batch path fills it with only the lookup misses.
  std::vector<LaneRequest> requests;
  std::vector<std::uint8_t> source_bits;  // per-round per-source scratch
  /// The protocol rule's verdicts, one per position of sorted_prev, and
  /// the same verdicts indexed by id − sorted_prev.front().
  std::vector<std::int64_t> verdicts;
  std::vector<std::int64_t> verdict_of;
  // Sorted copy of a fault-free lane's knowledge vector before a round:
  // the time-(t−1) multiset the protocol's rule (decide_multiset) decides
  // on and, on the blackboard, the round operator's shared multiset — one
  // counting pass per lane-round serves both. `counts` is that pass's
  // per-id tally over the round's id range.
  std::vector<KnowledgeId> sorted_prev;
  std::vector<std::uint32_t> counts;
};

/// The per-run scratch state of one worker. Default-constructed contexts
/// are ready to use; reuse across runs amortizes all allocations.
struct RunContext {
  std::size_t store_high_water = 0;
  std::vector<std::uint8_t> bits;   // per-round coin bits, one per party
  std::vector<int> crash_round;     // agent-backend fault-draw scratch
  RoundScratch round_scratch;       // in-place round-operator buffers
  BatchedRunContext batched;        // lockstep-lane state (run_prepared_batch)
  std::vector<OrbitProbe> orbit_probes;  // per-batch-lane dedup scratch
  sim::PayloadArena arena;          // agent-backend payload pool (lent to
                                    // each run's sim::Network)
};

/// `lanes` consecutive knowledge-level runs of `spec` (seeds first_seed,
/// first_seed + 1, ...) executed in lockstep over ctx.batched: one shared
/// round loop advances every live lane through the same instruction
/// stream. This is the knowledge backend's only executor — a single run
/// is a one-lane batch. Each lane's result (ctx.batched.lanes[l].outcome)
/// is a pure function of (spec, first_seed + l, wiring): per-lane stores
/// and coin columns make it independent of the batch width and of every
/// other lane. `ports` must be positioned at the first lane's run index;
/// each lane's assignment is drawn through next() in order (kRandomPerRun
/// assignments of every lane but the last are copied into lane storage;
/// the last lane's is the provider's latest draw, so lane.ports stays
/// valid until the provider draws again). Under a fault plan each lane's
/// crash schedule is drawn from the plan's per-run seed stream (a pure
/// function of (spec, seed) — no skip-ahead needed under parallelism) and
/// reported back in the outcome's crash_round.
void run_prepared_batch(RunContext& ctx, const Experiment& spec,
                        std::uint64_t first_seed, int lanes,
                        PortProvider& ports);

/// The same lockstep execution over an explicit, possibly non-contiguous
/// set of lane inputs: requests[l] drives ctx.batched.lanes[l]. This is
/// the primary — the provider form above draws its assignments, parks
/// kRandomPerRun copies in lane storage, and delegates here. The orbit-
/// deduped sweep calls this directly with only its lookup misses, so a
/// batch's survivors still execute shoulder-to-shoulder.
void run_prepared_batch(RunContext& ctx, const Experiment& spec,
                        std::span<const LaneRequest> requests);

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
