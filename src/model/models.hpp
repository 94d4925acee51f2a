// The two communication models, as knowledge-transition operators.
//
// A model turns the knowledge vector (K_1(t−1), ..., K_n(t−1)) plus the
// round-t random bits into (K_1(t), ..., K_n(t)), implementing Eq. (1)
// (blackboard) and Eq. (2) (message passing). Full information is implicit:
// each party contributes its entire knowledge every round.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "knowledge/knowledge.hpp"
#include "model/port_assignment.hpp"
#include "randomness/realization.hpp"

namespace rsb {

enum class Model {
  kBlackboard,
  kMessagePassing,
};

/// How much a full-information message reveals about its channel.
///
/// kPortTagged (default): a message carries the sender's outgoing port
/// number, so both endpoints learn the reciprocal port pair of their shared
/// edge. This is the reading of Eq. (2) under which the paper's theorems
/// hold: a receiver can then simulate selective-send protocols such as
/// CreateMatching, which the proof of Lemma 4.7 relies on.
///
/// kLiteral: the bare Eq. (2) tuple — received knowledge only. Under this
/// reading there are port wirings (see DESIGN.md and the model tests) where
/// the consistency partition of a gcd=1 configuration is frozen forever and
/// the 'if' direction of Theorem 4.2 fails; the variant is kept to
/// demonstrate exactly that.
enum class MessageVariant {
  kPortTagged,
  kLiteral,
};

std::string to_string(Model model);
std::string to_string(MessageVariant variant);

/// K_i(0) for input-free tasks: every party starts at ⊥.
std::vector<KnowledgeId> initial_knowledge(KnowledgeStore& store,
                                           int num_parties);

/// K_i(0) = input(v_i) for input-output tasks (Appendix C).
std::vector<KnowledgeId> initial_knowledge_with_inputs(
    KnowledgeStore& store, const std::vector<std::int64_t>& inputs);

/// One blackboard round (Eq. 1), the reference the in-place operator is
/// checked against. bits[i] is X_i(t). A non-empty `crash_round` applies
/// crash-stop faults: party j participates in round `round` iff
/// crash_round[j] < 0 or round < crash_round[j] (sim/fault.hpp semantics —
/// a party halts at the start of its crash round). A crashed party posts
/// nothing, so the Eq. (1) multiset seen by the survivors ranges over the
/// still-participating parties only; the crashed party's own knowledge is
/// frozen at its last pre-crash value. An empty schedule is fault free.
std::vector<KnowledgeId> blackboard_round(
    KnowledgeStore& store, const std::vector<KnowledgeId>& prev,
    const std::vector<bool>& bits, const std::vector<int>& crash_round = {},
    int round = 0);

/// Reusable scratch buffers for the in-place round operators below. Batch
/// drivers keep one per worker (RunContext) so steady-state sweeps run the
/// knowledge recursion without a single allocation per round.
struct RoundScratch {
  std::vector<KnowledgeId> sorted_prev;
  std::vector<KnowledgeId> received;
  std::vector<int> tags;
  std::vector<KnowledgeId> next;
  /// The byte copy of a std::vector<bool> round's bits.
  std::vector<std::uint8_t> bits;
};

/// One blackboard round in place: knowledge := Eq. (1)(knowledge, bits),
/// under the crash schedule `crash_round` at round `round` (empty = fault
/// free). bits[i] is X_i(t), one byte per party (0 or 1). Byte-identical
/// ids and store insertion order to blackboard_round: every participating
/// party's multiset is one shared sorted multiset of the participants'
/// previous values minus one occurrence of its own, so the round is
/// opened on that multiset as its board (KnowledgeStore::open_round), and
/// each participant's step is a function of its own previous value and
/// bit alone (KnowledgeStore::round_step, memoized per pair). The first
/// occurrence of a pair makes exactly the insertion the plain loop would;
/// on a board the round created it is appended without a probe.
/// A fault-free caller may pass `sorted_prev`, the sorted copy of
/// `knowledge` (run_prepared already builds it for the protocol's
/// pre-round decision rule, so it is built once per round); when it is
/// empty the operator sorts the participants' values itself. A
/// participant whose value the multiset lacks throws InvalidArgument.
void blackboard_round_inplace(KnowledgeStore& store,
                              std::vector<KnowledgeId>& knowledge,
                              std::span<const std::uint8_t> bits,
                              RoundScratch& scratch,
                              std::span<const int> crash_round = {},
                              int round = 0,
                              std::span<const KnowledgeId> sorted_prev = {});

/// The same round on bits held as a std::vector<bool>, copied into
/// scratch.bits first: for callers that draw their bits that way.
void blackboard_round_inplace(KnowledgeStore& store,
                              std::vector<KnowledgeId>& knowledge,
                              const std::vector<bool>& bits,
                              RoundScratch& scratch,
                              std::span<const int> crash_round = {},
                              int round = 0,
                              std::span<const KnowledgeId> sorted_prev = {});

/// One message-passing round (Eq. 2) under the given port assignment, the
/// reference the in-place operator is checked against. A non-empty
/// `crash_round` applies crash-stop faults with blackboard_round's
/// semantics: a crashed party's knowledge is frozen at its last pre-crash
/// value, and an alive receiver's Eq. (2) tuple entry for a port whose
/// sender has halted is the distinguished "silence" value
/// (KnowledgeStore::silence) — the synchronous-model fact that a dead
/// channel is detectable — with reciprocal tag 0 in the port-tagged
/// variant (a silent channel transmits no tag; real ports are >= 1).
std::vector<KnowledgeId> message_round(
    KnowledgeStore& store, const std::vector<KnowledgeId>& prev,
    const std::vector<bool>& bits, const PortAssignment& ports,
    MessageVariant variant = MessageVariant::kPortTagged,
    const std::vector<int>& crash_round = {}, int round = 0);

/// One message-passing round in place, under the crash schedule
/// `crash_round` at round `round` (empty = fault free), with one byte of
/// bits per party: byte-identical ids and store insertion order to
/// message_round (silence is interned lazily at the same first-use point
/// as the reference). Each party's tuple and tags are read off its two
/// wiring rows (PortAssignment::neighbors and ::reciprocal), O(n) per
/// party where the reference scans a row per port (port_to).
void message_round_inplace(KnowledgeStore& store,
                           std::vector<KnowledgeId>& knowledge,
                           std::span<const std::uint8_t> bits,
                           const PortAssignment& ports, MessageVariant variant,
                           RoundScratch& scratch,
                           std::span<const int> crash_round = {},
                           int round = 0);

/// The same round on bits held as a std::vector<bool>, copied into
/// scratch.bits first.
void message_round_inplace(KnowledgeStore& store,
                           std::vector<KnowledgeId>& knowledge,
                           const std::vector<bool>& bits,
                           const PortAssignment& ports, MessageVariant variant,
                           RoundScratch& scratch,
                           std::span<const int> crash_round = {},
                           int round = 0);

/// The knowledge vector at the realization's time in the blackboard model,
/// computed by running Eq. (1) for t rounds on the realization's bits.
std::vector<KnowledgeId> knowledge_at_blackboard(
    KnowledgeStore& store, const Realization& realization);

/// Ditto for the message-passing model under the given ports.
std::vector<KnowledgeId> knowledge_at_message_passing(
    KnowledgeStore& store, const Realization& realization,
    const PortAssignment& ports,
    MessageVariant variant = MessageVariant::kPortTagged);

/// The consistency partition of the parties at the realization's time: the
/// canonical block-index form of the relation i ~_t j ⇔ K_i(t) = K_j(t)
/// (Eq. 4). For the blackboard model this equals the equal-string partition
/// of the realization (proved in Section 4.1 and checked in tests).
std::vector<int> knowledge_partition(const std::vector<KnowledgeId>& knowledge);

}  // namespace rsb
