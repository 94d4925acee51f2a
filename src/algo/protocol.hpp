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
// randomness from a SourceBank and applies the protocol's one decision
// rule, a function of the time-(t−1) knowledge multiset a party observes,
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

  /// The protocol's one decision rule, applied at round t to the sorted
  /// multiset of time-(t−1) knowledge a party observes (π̃(ρ) at t−1).
  /// Returns false when no party observing `multiset` decides. Otherwise
  /// fills `verdicts` with one output per position of `multiset`: the
  /// output of a party whose own time-(t−1) value sits at that position
  /// (equal values get equal outputs). A pure function of (store,
  /// multiset) that keeps no scratch here: one protocol object serves
  /// every worker. In a fault-free round every party observes the same
  /// multiset, the sorted knowledge vector, so run_prepared calls this
  /// once per round, before the round runs.
  virtual bool decide_multiset(const KnowledgeStore& store,
                               std::span<const KnowledgeId> multiset,
                               std::vector<std::int64_t>& verdicts) const = 0;

  /// One party's verdict after a round, given its knowledge: nullopt =
  /// keep running; a value = decide it (irrevocably). Rebuilds the
  /// multiset the step value observed and applies decide_multiset at the
  /// party's own previous value; nullopt at time 0.
  std::optional<std::int64_t> decide(const KnowledgeStore& store,
                                     KnowledgeId knowledge) const;
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
  /// Groups the multiset by string. Where value and string determine each
  /// other — every value a blackboard step rooted at ⊥, or ⊥ itself — the
  /// unique strings are the singleton values, and the leader is the one
  /// whose string sorts first, compared by walking two previous chains
  /// (no allocation). Elsewhere (message steps, where a wiring can split
  /// one string over several values, and input roots) the strings are
  /// built and counted.
  bool decide_multiset(const KnowledgeStore& store,
                       std::span<const KnowledgeId> multiset,
                       std::vector<std::int64_t>& verdicts) const override;
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
/// id-order invariant: relabeling a run can crown a different singleton.
class WaitForSingletonLE final : public AnonymousProtocol {
 public:
  std::string name() const override { return "wait-for-singleton-LE"; }
  /// One run-length scan of the multiset (both models; the paper's
  /// isolated-vertex criterion is a property of π̃(ρ) at t−1).
  bool decide_multiset(const KnowledgeStore& store,
                       std::span<const KnowledgeId> multiset,
                       std::vector<std::int64_t>& verdicts) const override;
};

/// The class split both m-leader elections crown: whether classes of the
/// given sizes, in their canonical order, have a sub-collection of total
/// size exactly m (m >= 0), and if so the first one an include-first
/// depth-first search finds — each class is taken whenever the classes
/// after it can still make up the rest — as one flag per class in
/// `chosen`. A table of the sums each suffix of classes reaches, rows of
/// m + 1 bits in 64-bit words, finds it in O(classes × m / 64).
/// WaitForClassSplitMLE orders the classes by knowledge id, and
/// sim::RefinementMLeaderElectionAgent by signature bytes.
bool select_class_split(std::span<const int> sizes, int m,
                        std::vector<bool>& chosen);

/// Generalization to m leaders: decides once the consistency classes at
/// time t−1 admit a sub-collection of total size exactly m; the m leaders
/// are the members of the canonical one, select_class_split over the
/// classes in knowledge-id order. Completes exactly when the task's
/// partition criterion is met.
class WaitForClassSplitMLE final : public AnonymousProtocol {
 public:
  explicit WaitForClassSplitMLE(int num_leaders);
  std::string name() const override;
  bool decide_multiset(const KnowledgeStore& store,
                       std::span<const KnowledgeId> multiset,
                       std::vector<std::int64_t>& verdicts) const override;
  int num_leaders() const noexcept { return num_leaders_; }

 private:
  int num_leaders_;
};

}  // namespace rsb
