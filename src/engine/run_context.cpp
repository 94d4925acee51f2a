#include "engine/run_context.hpp"

#include <algorithm>
#include <string>

#include "engine/engine.hpp"
#include "sim/network.hpp"
#include "util/error.hpp"

namespace rsb {

namespace {

/// Sorts a fault-free round's knowledge vector into `sorted` by counting.
/// Every party observed the same time-(t−1) multiset, so the values were
/// interned together one round earlier and fill one id range of at most
/// n ids: tallying them over [min, max] and expanding the tallies is an
/// exact sort in O(n). A longer range breaks that invariant and throws.
void sort_round_values(std::span<const KnowledgeId> values,
                       std::vector<std::uint32_t>& counts,
                       std::vector<KnowledgeId>& sorted) {
  const auto [min, max] = std::minmax_element(values.begin(), values.end());
  const std::size_t range = std::size_t{*max} - *min + 1;
  if (range > values.size()) {
    throw Error("run_prepared_batch: internal error: a fault-free round's " +
                std::to_string(values.size()) + " values span " +
                std::to_string(range) + " ids");
  }
  const KnowledgeId lowest = *min;
  counts.assign(range, 0);
  for (const KnowledgeId value : values) ++counts[value - lowest];
  sorted.resize(values.size());
  KnowledgeId* out = sorted.data();
  for (std::size_t offset = 0; offset < range; ++offset) {
    out = std::fill_n(out, counts[offset],
                      lowest + static_cast<KnowledgeId>(offset));
  }
}

}  // namespace

void run_prepared_batch(RunContext& ctx, const Experiment& spec,
                        std::uint64_t first_seed, int lanes,
                        PortProvider& ports) {
  BatchedRunContext& batch = ctx.batched;
  if (batch.lanes.size() < static_cast<std::size_t>(lanes)) {
    batch.lanes.resize(static_cast<std::size_t>(lanes));
  }
  batch.requests.clear();
  for (int l = 0; l < lanes; ++l) {
    BatchedRunContext::Lane& lane = batch.lanes[static_cast<std::size_t>(l)];
    const PortAssignment* assignment = ports.next();
    if (assignment != nullptr &&
        spec.port_policy == PortPolicy::kRandomPerRun && l + 1 < lanes) {
      // next() hands back the provider's storage, which the next lane's
      // draw redraws in place: every lane but the last keeps a copy (into
      // storage it reuses from batch to batch).
      lane.ports_storage = *assignment;
      assignment = &*lane.ports_storage;
    }
    batch.requests.push_back(
        {first_seed + static_cast<std::uint64_t>(l), assignment});
  }
  run_prepared_batch(ctx, spec, batch.requests);
}

void run_prepared_batch(RunContext& ctx, const Experiment& spec,
                        std::span<const LaneRequest> requests) {
  const int n = spec.config.num_parties();
  const int sources = spec.config.num_sources();
  const int lanes = static_cast<int>(requests.size());
  BatchedRunContext& batch = ctx.batched;
  if (batch.lanes.size() < static_cast<std::size_t>(lanes)) {
    batch.lanes.resize(static_cast<std::size_t>(lanes));
  }
  batch.source_bits.resize(static_cast<std::size_t>(sources));

  int live = lanes;
  for (int l = 0; l < lanes; ++l) {
    BatchedRunContext::Lane& lane = batch.lanes[static_cast<std::size_t>(l)];
    const std::uint64_t seed = requests[static_cast<std::size_t>(l)].seed;
    lane.store.reset();
    lane.knowledge.assign(static_cast<std::size_t>(n), lane.store.bottom());
    lane.coins.clear();
    for (int source = 0; source < sources; ++source) {
      lane.coins.emplace_back(
          derive_seed(seed, static_cast<std::uint64_t>(source)));
    }
    spec.faults.draw(n, seed, lane.crash_round);
    lane.faulty = !lane.crash_round.empty();
    // Reset the outcome field by field — a fresh ProtocolOutcome would
    // deallocate the lane's vectors every batch.
    lane.outcome.terminated = false;
    lane.outcome.rounds = 0;
    lane.outcome.outputs.assign(static_cast<std::size_t>(n), 0);
    lane.outcome.decision_round.assign(static_cast<std::size_t>(n), -1);
    lane.outcome.crash_round.clear();
    lane.undecided = n;
    lane.consumed = 0;
    lane.done = false;
    lane.ports = requests[static_cast<std::size_t>(l)].ports;
  }

  const AnonymousProtocol& protocol = *spec.protocol;
  const std::vector<int>& source_of = spec.config.source_of_party();
  std::vector<std::uint8_t>& bits = ctx.bits;
  bits.resize(static_cast<std::size_t>(n));
  for (int round = 1; round <= spec.max_rounds && live > 0; ++round) {
    for (int l = 0; l < lanes; ++l) {
      BatchedRunContext::Lane& lane = batch.lanes[static_cast<std::size_t>(l)];
      if (lane.done) continue;
      if (lane.faulty) {
        for (int party = 0; party < n; ++party) {
          if (lane.crash_round[static_cast<std::size_t>(party)] == round &&
              lane.outcome.decision_round[static_cast<std::size_t>(party)] <
                  0) {
            --lane.undecided;
          }
        }
        if (lane.undecided == 0) {
          lane.done = true;
          --live;
          continue;
        }
      } else {
        // Every party of a fault-free round observes the same time-(t−1)
        // multiset, the sorted knowledge vector, so the protocol's rule
        // decides the whole round before it runs. A verdict ends the lane
        // without this round's coin draws or round operator: per-lane
        // coins make the unconsumed draws invisible to every other run.
        // The sorted vector doubles as the blackboard round operator's
        // shared multiset.
        sort_round_values(lane.knowledge, batch.counts, batch.sorted_prev);
        if (protocol.decide_multiset(lane.store, batch.sorted_prev,
                                     batch.verdicts)) {
          // The round's ids span at most n values (sort_round_values):
          // index the verdicts by id to reach each party's in O(1).
          const KnowledgeId lowest = batch.sorted_prev.front();
          batch.verdict_of.resize(batch.sorted_prev.back() - lowest + 1);
          for (std::size_t i = 0; i < batch.sorted_prev.size(); ++i) {
            batch.verdict_of[batch.sorted_prev[i] - lowest] = batch.verdicts[i];
          }
          for (int party = 0; party < n; ++party) {
            const std::size_t p = static_cast<std::size_t>(party);
            lane.outcome.outputs[p] =
                batch.verdict_of[lane.knowledge[p] - lowest];
            lane.outcome.decision_round[p] = round;
          }
          lane.outcome.rounds = round;
          lane.undecided = 0;
          lane.done = true;
          --live;
          continue;
        }
      }
      // One draw per source per executed round — exactly the SourceBank's
      // lazy extension — then fan the source bits out over the parties.
      ++lane.consumed;
      for (int source = 0; source < sources; ++source) {
        batch.source_bits[static_cast<std::size_t>(source)] =
            lane.coins[static_cast<std::size_t>(source)].next_bit() ? 1 : 0;
      }
      for (int party = 0; party < n; ++party) {
        bits[static_cast<std::size_t>(party)] =
            batch.source_bits[static_cast<std::size_t>(
                source_of[static_cast<std::size_t>(party)])];
      }
      // A fault-free lane's crash schedule is empty, and a faulty lane's
      // survivor multiset is sorted by the operator itself.
      if (spec.model == Model::kBlackboard) {
        blackboard_round_inplace(
            lane.store, lane.knowledge, bits, ctx.round_scratch,
            lane.crash_round, round,
            lane.faulty ? std::span<const KnowledgeId>() : batch.sorted_prev);
      } else {
        message_round_inplace(lane.store, lane.knowledge, bits, *lane.ports,
                              spec.variant, ctx.round_scratch,
                              lane.crash_round, round);
      }
      if (!lane.faulty) continue;
      // Under crashes each survivor observes its own multiset: decide
      // party by party after the round.
      for (int party = 0; party < n; ++party) {
        const std::size_t p = static_cast<std::size_t>(party);
        if (lane.outcome.decision_round[p] >= 0 ||
            (lane.crash_round[p] >= 0 && round >= lane.crash_round[p])) {
          continue;
        }
        const auto verdict = protocol.decide(lane.store, lane.knowledge[p]);
        if (verdict.has_value()) {
          lane.outcome.outputs[p] = *verdict;
          lane.outcome.decision_round[p] = round;
          --lane.undecided;
          lane.outcome.rounds = round;
        }
      }
      if (lane.undecided == 0) {
        lane.done = true;
        --live;
      }
    }
  }
  for (int l = 0; l < lanes; ++l) {
    BatchedRunContext::Lane& lane = batch.lanes[static_cast<std::size_t>(l)];
    lane.outcome.terminated = lane.undecided == 0;
    if (lane.faulty) lane.outcome.crash_round = lane.crash_round;
    ctx.store_high_water = std::max(ctx.store_high_water, lane.store.size());
  }
}

ProtocolOutcome run_agent_prepared(RunContext& ctx, const Experiment& spec,
                                   std::uint64_t seed,
                                   const PortAssignment* ports) {
  std::optional<PortAssignment> run_ports;
  if (ports != nullptr) run_ports = *ports;
  spec.faults.draw(spec.config.num_parties(), seed, ctx.crash_round);
  sim::Network net(spec.model, spec.config, seed, std::move(run_ports),
                   spec.factory, spec.scheduler, ctx.crash_round, &ctx.arena,
                   spec.topology.get());
  const sim::Network::Outcome net_outcome = net.run(spec.max_rounds);
  ProtocolOutcome outcome;
  outcome.terminated = net_outcome.all_decided;
  outcome.rounds = net_outcome.rounds;
  outcome.outputs = net_outcome.outputs;
  outcome.decision_round = net_outcome.decision_round;
  if (!ctx.crash_round.empty()) outcome.crash_round = ctx.crash_round;
  return outcome;
}

PortProvider::PortProvider(Model model, PortPolicy policy,
                           const std::optional<PortAssignment>& fixed,
                           const SourceConfiguration& config,
                           std::uint64_t port_seed)
    : policy_(policy), rng_(port_seed) {
  if (model != Model::kMessagePassing) return;
  switch (policy) {
    case PortPolicy::kNone:
      break;
    case PortPolicy::kFixed:
      current_ = *fixed;
      break;
    case PortPolicy::kCyclic:
      current_ = PortAssignment::cyclic(config.num_parties());
      break;
    case PortPolicy::kAdversarial:
      current_ = PortAssignment::adversarial_for(config);
      break;
    case PortPolicy::kRandomPerRun:
      num_parties_ = config.num_parties();
      break;
  }
}

void PortProvider::maybe_checkpoint() {
  if (produced_ % kCheckpointStride != 0) return;
  const std::size_t k = static_cast<std::size_t>(produced_ / kCheckpointStride);
  // Checkpoints are only ever appended at the stream's frontier; a cursor
  // revisiting an already-checkpointed boundary changes nothing (the
  // stream is deterministic, so the state is identical anyway).
  if (k == checkpoints_.size()) checkpoints_.push_back(rng_);
}

void PortProvider::advance_one() {
  maybe_checkpoint();
  PortAssignment::discard_random(num_parties_, rng_);
  ++produced_;
}

const PortAssignment* PortProvider::next() {
  if (policy_ == PortPolicy::kNone) return nullptr;
  if (policy_ == PortPolicy::kRandomPerRun) {
    maybe_checkpoint();
    if (current_.has_value()) {
      current_->redraw_random(num_parties_, rng_, link_scratch_);
    } else {
      current_ = PortAssignment::random(num_parties_, rng_);
    }
  }
  ++produced_;
  return &*current_;
}

void PortProvider::skip_to(std::uint64_t run_index) {
  if (policy_ != PortPolicy::kRandomPerRun) {
    produced_ = run_index;
    return;
  }
  if (run_index < produced_) {
    // Rewind (a stolen chunk behind the worker's cursor): restore the
    // nearest checkpoint at or below the target and replay forward —
    // draw-for-draw what the serial sweep consumed, so run_index still
    // receives its canonical wiring, at O(stride) cost. checkpoints_[0]
    // (the root state) always exists by the time produced_ > 0.
    const std::size_t k = std::min(
        static_cast<std::size_t>(run_index / kCheckpointStride),
        checkpoints_.size() - 1);
    rng_ = checkpoints_[k];
    produced_ = static_cast<std::uint64_t>(k) * kCheckpointStride;
  }
  while (produced_ < run_index) advance_one();
}

}  // namespace rsb
