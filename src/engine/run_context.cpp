#include "engine/run_context.hpp"

#include <algorithm>
#include <span>
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
    throw Error("run_prepared: internal error: a fault-free round's " +
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

const ProtocolOutcome& run_prepared(RunContext& ctx, const Experiment& spec,
                                    std::uint64_t seed,
                                    const PortAssignment* ports) {
  const int n = spec.config.num_parties();
  const int sources = spec.config.num_sources();
  ctx.store.reset();
  ctx.knowledge.assign(static_cast<std::size_t>(n), ctx.store.bottom());
  ctx.coins.clear();
  for (int source = 0; source < sources; ++source) {
    ctx.coins.emplace_back(
        derive_seed(seed, static_cast<std::uint64_t>(source)));
  }
  spec.faults.draw(n, seed, ctx.crash_round);
  const bool faulty = !ctx.crash_round.empty();
  // Reset the outcome field by field — a fresh ProtocolOutcome would
  // deallocate its vectors every run.
  ProtocolOutcome& outcome = ctx.outcome;
  outcome.terminated = false;
  outcome.rounds = 0;
  outcome.outputs.assign(static_cast<std::size_t>(n), 0);
  outcome.decision_round.assign(static_cast<std::size_t>(n), -1);
  outcome.crash_round.clear();
  int undecided = n;

  const AnonymousProtocol& protocol = *spec.protocol;
  const std::vector<int>& source_of = spec.config.source_of_party();
  ctx.source_bits.resize(static_cast<std::size_t>(sources));
  ctx.bits.resize(static_cast<std::size_t>(n));
  for (int round = 1; round <= spec.max_rounds; ++round) {
    if (faulty) {
      for (int party = 0; party < n; ++party) {
        const std::size_t p = static_cast<std::size_t>(party);
        if (ctx.crash_round[p] == round && outcome.decision_round[p] < 0) {
          --undecided;
        }
      }
      if (undecided == 0) break;
    } else {
      // Every party of a fault-free round observes the same time-(t−1)
      // multiset, the sorted knowledge vector, so the protocol's rule
      // decides the whole round before it runs. A verdict ends the run
      // without this round's coin draws or round operator: per-run coins
      // make the unconsumed draws invisible to every other run. The sorted
      // vector doubles as the blackboard round operator's shared multiset.
      sort_round_values(ctx.knowledge, ctx.counts, ctx.sorted_prev);
      if (protocol.decide_multiset(ctx.store, ctx.sorted_prev, ctx.verdicts)) {
        // The round's ids span at most n values (sort_round_values):
        // index the verdicts by id to reach each party's in O(1).
        const KnowledgeId lowest = ctx.sorted_prev.front();
        ctx.verdict_of.resize(ctx.sorted_prev.back() - lowest + 1);
        for (std::size_t i = 0; i < ctx.sorted_prev.size(); ++i) {
          ctx.verdict_of[ctx.sorted_prev[i] - lowest] = ctx.verdicts[i];
        }
        for (int party = 0; party < n; ++party) {
          const std::size_t p = static_cast<std::size_t>(party);
          outcome.outputs[p] = ctx.verdict_of[ctx.knowledge[p] - lowest];
          outcome.decision_round[p] = round;
        }
        outcome.rounds = round;
        undecided = 0;
        break;
      }
    }
    // One draw per source per executed round — exactly the SourceBank's
    // lazy extension — then fan the source bits out over the parties.
    for (int source = 0; source < sources; ++source) {
      ctx.source_bits[static_cast<std::size_t>(source)] =
          ctx.coins[static_cast<std::size_t>(source)].next_bit() ? 1 : 0;
    }
    for (int party = 0; party < n; ++party) {
      ctx.bits[static_cast<std::size_t>(party)] =
          ctx.source_bits[static_cast<std::size_t>(
              source_of[static_cast<std::size_t>(party)])];
    }
    // A fault-free run's crash schedule is empty, and a faulty run's
    // survivor multiset is sorted by the operator itself.
    if (spec.model == Model::kBlackboard) {
      blackboard_round_inplace(
          ctx.store, ctx.knowledge, ctx.bits, ctx.round_scratch,
          ctx.crash_round, round,
          faulty ? std::span<const KnowledgeId>() : ctx.sorted_prev);
    } else {
      message_round_inplace(ctx.store, ctx.knowledge, ctx.bits, *ports,
                            spec.variant, ctx.round_scratch, ctx.crash_round,
                            round);
    }
    if (!faulty) continue;
    // Under crashes each survivor observes its own multiset: decide party
    // by party after the round.
    for (int party = 0; party < n; ++party) {
      const std::size_t p = static_cast<std::size_t>(party);
      if (outcome.decision_round[p] >= 0 ||
          (ctx.crash_round[p] >= 0 && round >= ctx.crash_round[p])) {
        continue;
      }
      const auto verdict = protocol.decide(ctx.store, ctx.knowledge[p]);
      if (verdict.has_value()) {
        outcome.outputs[p] = *verdict;
        outcome.decision_round[p] = round;
        --undecided;
        outcome.rounds = round;
      }
    }
    if (undecided == 0) break;
  }
  outcome.terminated = undecided == 0;
  if (faulty) outcome.crash_round = ctx.crash_round;
  ctx.store_high_water = std::max(ctx.store_high_water, ctx.store.size());
  return outcome;
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
