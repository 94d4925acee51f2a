// The Euclid-style leader election of Theorem 4.2 ('if' direction), as an
// explicit message-level protocol.
//
// Structure (Section 4.2): parties interleave
//  * refinement steps — RefinementAgent's two rounds (label exchange with
//    outgoing-port tags, then rank agreement) that track the consistency
//    classes and feed fresh randomness into the labels; and
//  * matching phases — Algorithm 1 (CreateMatchingRounds) run between the
//    smallest class V1 and the next strictly larger one V2, each party
//    reading the roles off its per-port labels. The matched / unmatched
//    outcome is then folded into the labels by one status ranking round,
//    splitting V2 into classes of sizes |V1| and |V2|−|V1| — the
//    subtraction step of Euclid's algorithm on the class sizes.
//
// A leader is declared as soon as a singleton class exists (the isolated
// vertex of π̃); the holder of the smallest singleton signature outputs 1.
// With gcd(n_1..n_k) = 1 the size recursion reaches 1 (Lemma 4.7); with
// gcd g > 1 under the adversarial wiring every class size stays a multiple
// of g and the protocol correctly never terminates (Lemma 4.3).
//
// Every control decision (which classes to match, when a matching phase
// ends, when to decide) is a deterministic function of data all parties
// share — the signature multiset and the retirement broadcasts — so the
// anonymous parties stay in lockstep without any hidden coordinator.
#pragma once

#include <cstdint>

#include "algo/agents.hpp"
#include "sim/network.hpp"

namespace rsb::sim {

/// class_sizes() (inherited) are the sizes at the last completed labeling,
/// a refinement step's or a status round's.
class EuclidLeaderElectionAgent final : public RefinementAgent {
 public:
  void begin(const Init& init) override;
  void send_phase(int round, std::uint64_t random_word, Outbox& out) override;
  void receive_phase(int round, const Delivery& delivery) override;

  /// Number of completed matching phases (diagnostics).
  int matchings_run() const noexcept { return matchings_run_; }

 protected:
  void on_step_complete() override;

 private:
  enum class Phase {
    kRefine,  // a refinement step's two rounds
    kMatch,   // Algorithm 1 between V1 and V2
    kStatus,  // rank (signature, matching status) into new labels
  };

  Phase phase_ = Phase::kRefine;
  int matchings_run_ = 0;
  CreateMatchingRounds matching_;
};

}  // namespace rsb::sim
