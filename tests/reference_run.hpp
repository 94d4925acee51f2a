// An independent per-run reference for the engine's knowledge backend.
//
// reference_run re-derives one run from the definitions alone: a fresh
// KnowledgeStore and SourceBank per call, the value-returning round
// operators (given the run's crash schedule under a fault plan), and a
// per-party decide after every executed round, through the reference
// bodies of tests/reference_decide.hpp. It shares none of the engine's
// run kernel (run_prepared) — no pre-round rule, no raw per-source coin
// engines, no in-place operators, no reciprocal-port rows — and none of
// src/'s decision rules, so a law comparing engine sweeps against it pins
// every execution knob and thread count to the paper's definition, not
// merely to one another.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "engine/engine.hpp"
#include "engine/run_context.hpp"
#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "randomness/source_bank.hpp"
#include "reference_decide.hpp"
#include "run_replay.hpp"

namespace rsb::testing {

/// One knowledge-backend run of `spec` at `seed` under the wiring `ports`
/// (non-null iff message passing). Under a fault plan the crash schedule
/// is the plan's draw for (n, seed): a party halts at the start of its
/// crash round, stops blocking termination, keeps any earlier decision,
/// and is never asked to decide again.
inline ProtocolOutcome reference_run(const Experiment& spec,
                                     std::uint64_t seed,
                                     const PortAssignment* ports) {
  const int n = spec.config.num_parties();
  const std::size_t parties = static_cast<std::size_t>(n);
  SourceBank bank(spec.config, seed);
  KnowledgeStore store;
  std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
  std::vector<int> crash_round;
  spec.faults.draw(n, seed, crash_round);
  const bool faulty = !crash_round.empty();
  const auto crashed_by = [&](std::size_t party, int round) {
    return faulty && crash_round[party] >= 0 && round >= crash_round[party];
  };

  ProtocolOutcome outcome;
  outcome.outputs.assign(parties, 0);
  outcome.decision_round.assign(parties, -1);
  int undecided = n;
  for (int round = 1; round <= spec.max_rounds && undecided > 0; ++round) {
    for (std::size_t p = 0; p < parties; ++p) {
      if (faulty && crash_round[p] == round && outcome.decision_round[p] < 0) {
        --undecided;
      }
    }
    if (undecided == 0) break;
    std::vector<bool> bits;
    for (int party = 0; party < n; ++party) {
      bits.push_back(bank.party_bit(party, round));
    }
    if (spec.model == Model::kBlackboard) {
      knowledge = blackboard_round(store, knowledge, bits, crash_round, round);
    } else {
      knowledge = message_round(store, knowledge, bits, *ports, spec.variant,
                                crash_round, round);
    }
    for (std::size_t p = 0; p < parties; ++p) {
      if (outcome.decision_round[p] >= 0 || crashed_by(p, round)) continue;
      const auto verdict =
          reference_decide(*spec.protocol, store, knowledge[p]);
      if (verdict.has_value()) {
        outcome.outputs[p] = *verdict;
        outcome.decision_round[p] = round;
        --undecided;
        outcome.rounds = round;
      }
    }
  }
  outcome.terminated = undecided == 0;
  if (faulty) outcome.crash_round = crash_round;
  return outcome;
}

/// Every field of a ProtocolOutcome, comparable with ==.
using OutcomeSnapshot =
    std::tuple<std::vector<std::int64_t>, std::vector<int>, int, bool,
               std::vector<int>>;

inline OutcomeSnapshot snapshot(const ProtocolOutcome& outcome) {
  return {outcome.outputs, outcome.decision_round, outcome.rounds,
          outcome.terminated, outcome.crash_round};
}

/// A whole sweep of spec.seeds through reference_run: per-run snapshots
/// keyed by seed, and the RunStats folded in run order. Run i's wiring is
/// the i-th draw of the spec's port stream, consumed sequentially.
struct ReferenceSweep {
  std::map<std::uint64_t, OutcomeSnapshot> runs;
  RunStats stats;
};

inline ReferenceSweep reference_sweep(const Experiment& spec) {
  spec.validate();
  PortProvider ports(spec.model, spec.port_policy, spec.fixed_ports,
                     spec.config, spec.port_seed);
  const SymmetricTask* task = spec.task.has_value() ? &*spec.task : nullptr;
  ReferenceSweep sweep;
  for (std::uint64_t i = 0; i < spec.seeds.count; ++i) {
    const std::uint64_t seed = spec.seeds.first + i;
    const ProtocolOutcome outcome = reference_run(spec, seed, ports.next());
    sweep.runs.emplace(seed, snapshot(outcome));
    sweep.stats.record(outcome, task);
  }
  return sweep;
}

/// The per-run snapshots an engine sweep reports, keyed by seed.
inline std::map<std::uint64_t, OutcomeSnapshot> snapshot_sweep(
    Engine& engine, const Experiment& spec) {
  std::map<std::uint64_t, OutcomeSnapshot> out;
  replay_runs(engine, spec,
              [&](const RunView& view, const ProtocolOutcome& outcome) {
                out.emplace(view.seed, snapshot(outcome));
              });
  return out;
}

}  // namespace rsb::testing
