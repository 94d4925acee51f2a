// Knowledge-level anonymous protocols.
//
// In the full-information setting, everything a party may ever do is a
// function of its knowledge (Section 2.2): a deterministic algorithm's
// state is determined by the received randomness and messages, all of which
// K_i(t) contains. A protocol is therefore modeled as a *decision function*
// of the knowledge value: name-independence is enforced by construction,
// because the function never sees the party's name.
//
// The runner advances the real knowledge recursion (Eqs. 1/2) with live
// randomness from a SourceBank and asks each undecided party for a verdict
// each round.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "randomness/source_bank.hpp"

namespace rsb {

class AnonymousProtocol {
 public:
  virtual ~AnonymousProtocol() = default;

  virtual std::string name() const = 0;

  /// The party's verdict given its knowledge: nullopt = keep running;
  /// a value = decide it (irrevocably). Must be a pure function of
  /// (store, knowledge) — the runner may call it in any order.
  virtual std::optional<std::int64_t> decide(const KnowledgeStore& store,
                                             KnowledgeId knowledge) const = 0;

  /// True iff decide() depends on the knowledge value's *content* only —
  /// the bit strings and multiset structure reachable through the store —
  /// and never on the numeric order of interned ids. Ids are insertion-
  /// order handles (parties intern in index order each round), so an
  /// id-order rule like "the smallest unique knowledge value" silently
  /// reads the party labeling: relabeling the parties of a run permutes
  /// which value was interned first and can move the verdicts to different
  /// holders. Content-only rules are equivariant — relabeling a run's
  /// initial configuration relabels its outcome, nothing more — which is
  /// what lets the orbit-dedup layer (engine/orbit.hpp) replicate one
  /// executed run across its whole isomorphism class. Declaring true here
  /// is a promise pinned by the orbit byte-identity tests; the
  /// conservative default keeps id-order protocols on the literal-match
  /// path, which is always sound.
  virtual bool knowledge_order_invariant() const { return false; }

  /// Result of decide_round_from_prev below.
  enum class RoundVerdicts {
    kUnsupported,  // cannot decide from the time-(t−1) multiset alone
    kNone,         // supported; nobody decides this round, verdicts untouched
    kSome,         // verdicts filled for every party deciding this round
  };

  /// Pre-round decision hook for the lockstep batched engine path. Some
  /// protocols' round-t verdicts are a function of the time-(t−1)
  /// knowledge alone: `knowledge` is the complete fault-free party vector
  /// about to be advanced, `sorted_prev` the same values sorted ascending
  /// (the time-(t−1) multiset in canonical order). Overriding lets the
  /// engine decide *before* executing the round — and skip a run's final
  /// round operator entirely, since once every survivor has decided the
  /// operator's output is unobservable. Overrides must agree verdict-for-
  /// verdict with decide on the post-round knowledge (pinned by the batch
  /// property laws' per-party-decide reference). The default opts out.
  virtual RoundVerdicts decide_round_from_prev(
      const KnowledgeStore& store, std::span<const KnowledgeId> knowledge,
      std::span<const KnowledgeId> sorted_prev,
      std::vector<std::optional<std::int64_t>>& verdicts) const;
};

struct ProtocolOutcome {
  bool terminated = false;  // every surviving party decided in the budget
  /// Knowledge backend: the round of the last decision. Agent backend:
  /// the rounds the network actually ran — for a terminated faulty run
  /// this can exceed the last decision round, because an undecided victim
  /// keeps the network stepping until its crash round unblocks it.
  int rounds = 0;
  std::vector<std::int64_t> outputs;  // valid where decision_round >= 0
  std::vector<int> decision_round;    // -1 where undecided
  /// The run's crash schedule under a fault plan (sim/fault.hpp): one
  /// crash round per party, -1 for survivors. Empty for fault-free runs —
  /// the canonical encoding consumers test to take the fast path.
  std::vector<int> crash_round;
};

/// Runs `protocol` on n anonymous parties under the given model and
/// randomness configuration. `ports` must be set iff the model is message
/// passing.
///
/// Compatibility wrapper: delegates to a single-spec Engine run (see
/// engine/engine.hpp) and returns its bit-identical outcome. New code
/// sweeping seeds or configurations should build an Experiment and use
/// Engine::run_batch directly.
ProtocolOutcome run_protocol(Model model, const SourceConfiguration& config,
                             const std::optional<PortAssignment>& ports,
                             const AnonymousProtocol& protocol,
                             std::uint64_t seed, int max_rounds,
                             MessageVariant variant = MessageVariant::kPortTagged);

/// Leader election for the blackboard model (complete there by Theorem 4.1):
/// a party decides once some randomness string at time t−1 is unique among
/// all parties; the leader is the holder of the lexicographically smallest
/// unique string. All parties observe the same string multiset, so all
/// decide in the same round, consistently.
class BlackboardUniqueStringLE final : public AnonymousProtocol {
 public:
  std::string name() const override { return "blackboard-unique-string-LE"; }
  std::optional<std::int64_t> decide(const KnowledgeStore& store,
                                     KnowledgeId knowledge) const override;
  /// The rule ranges over randomness *strings* compared lexicographically —
  /// pure content, no interned-id order — so relabeled runs produce
  /// relabeled outcomes and orbit dedup may quotient by the full group.
  bool knowledge_order_invariant() const override { return true; }
  /// Pre-round form: on a fault-free blackboard whose parties start from
  /// ⊥, each time-(t−1) value holds exactly one string and vice versa, so
  /// the unique strings are the singleton ids of sorted_prev; the leader
  /// is the singleton whose string sorts first, compared by walking the
  /// two previous chains (no allocation). Round 1 (every value ⊥) is
  /// decided on either model: a string is unique only when n = 1. Message
  /// steps and input roots return kUnsupported and keep the post-round
  /// decide.
  RoundVerdicts decide_round_from_prev(
      const KnowledgeStore& store, std::span<const KnowledgeId> knowledge,
      std::span<const KnowledgeId> sorted_prev,
      std::vector<std::optional<std::int64_t>>& verdicts) const override;
};

/// Model-agnostic leader election: a party decides once the knowledge
/// multiset at time t−1 (own previous knowledge + the received knowledge of
/// everyone else) contains a unique element; the leader is the holder of
/// the canonically-smallest unique knowledge value. This realizes the
/// paper's "isolated vertex of π̃(ρ)" criterion directly; in the
/// port-tagged message-passing model it subsumes the Euclid/CreateMatching
/// procedure because the full-information consistency partition refines at
/// least as fast as any explicit protocol's (see DESIGN.md).
/// Note: "canonically-smallest" means smallest interned id, and ids are
/// insertion-order handles — among several singleton classes the winner is
/// the one first attained in party-index order. The rule is name-
/// independent (every party applies it to the same multiset) but *not*
/// id-order invariant: relabeling a run can crown a different singleton,
/// so knowledge_order_invariant() stays false and orbit dedup matches this
/// protocol's runs literally.
class WaitForSingletonLE final : public AnonymousProtocol {
 public:
  std::string name() const override { return "wait-for-singleton-LE"; }
  std::optional<std::int64_t> decide(const KnowledgeStore& store,
                                     KnowledgeId knowledge) const override;
  /// Pre-round form: the round-t rule ranges over exactly the time-(t−1)
  /// multiset, which is sorted_prev itself — one run-length scan decides
  /// the whole round before it executes (both models; the paper's
  /// isolated-vertex criterion is a property of π̃(ρ) at t−1).
  RoundVerdicts decide_round_from_prev(
      const KnowledgeStore& store, std::span<const KnowledgeId> knowledge,
      std::span<const KnowledgeId> sorted_prev,
      std::vector<std::optional<std::int64_t>>& verdicts) const override;
};

/// Generalization to m leaders: decides once the consistency classes at
/// time t−1 admit a sub-collection of total size exactly m; the m leaders
/// are chosen canonically (greedy over classes in canonical knowledge
/// order). Completes exactly when the task's partition criterion is met.
class WaitForClassSplitMLE final : public AnonymousProtocol {
 public:
  explicit WaitForClassSplitMLE(int num_leaders);
  std::string name() const override;
  std::optional<std::int64_t> decide(const KnowledgeStore& store,
                                     KnowledgeId knowledge) const override;

 private:
  int num_leaders_;
};

}  // namespace rsb
