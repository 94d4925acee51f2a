// Message-level agents for the synchronous network simulator.
//
// RefinementAgent implements anonymous color refinement — the bounded-
// message realization of the full-information protocol: a party's label at
// refinement step s equals the consistency class of its knowledge K(s)
// (Eq. 1/2), which tests verify against the knowledge recursion. Each
// refinement step takes two network rounds in both models:
//   round A (exchange): transmit the *previous* step's label — per Eqs.
//     (1)/(2) a round-s message carries state from time s−1, never the
//     round-s random bit; in the message-passing model the payload also
//     carries the sender's outgoing port number (the reciprocal tag of
//     MessageVariant::kPortTagged);
//   round B (rank): broadcast the completed signature so all parties agree
//     on the canonical label numbering.
//
// CreateMatchingRounds is Algorithm 1 at the message level, with physical
// REQ/ACK routing: V1 members request a uniformly random active V2 port; a
// V2 member ACKs the minimal requesting port; matched pairs retire and
// announce. It is the one implementation of the algorithm:
// CreateMatchingAgent runs it on roles the parties announce, and
// EuclidLeaderElectionAgent (algo/euclid.hpp) on roles it reads off its
// refinement classes. Lemma 4.8's guarantees (perfect matching of the
// smaller side, everyone learns termination) are asserted by tests.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/network.hpp"

namespace rsb::sim {

class RefinementAgent : public Agent {
 public:
  void begin(const Init& init) override;
  void send_phase(int round, std::uint64_t random_word, Outbox& out) override;
  void receive_phase(int round, const Delivery& delivery) override;

  /// The party's current refinement label (class index at the last
  /// completed refinement step).
  int label() const noexcept { return label_; }

  /// Number of completed refinement steps.
  int steps() const noexcept { return steps_; }

  /// Sizes of all classes at the last completed step, indexed by label.
  const std::vector<int>& class_sizes() const noexcept { return class_sizes_; }

  /// The random bits consumed so far, in order (for cross-checking the
  /// label partition against the knowledge recursion).
  const std::vector<bool>& bit_history() const noexcept { return bits_; }

 protected:
  /// Marks a port whose party ranked nothing in the last ranking round.
  static constexpr PayloadId kNoSignature =
      std::numeric_limits<PayloadId>::max();

  /// Hook: called after every completed refinement step, when the labels
  /// and classes are fresh. Subclasses decide here.
  virtual void on_step_complete() {}

  /// The bytes of the party's own signature in the last ranking round,
  /// after the payload's two-byte round prefix.
  std::string_view own_signature_text() const;

  /// The signature of each class, indexed by label, as arena-interned
  /// payload ids: interning makes id equality signature equality, so a
  /// class is a 4-byte id instead of an owned string.
  const std::vector<PayloadId>& class_signatures() const noexcept {
    return class_signatures_;
  }

  /// Message passing: the signature the party at port p ranked in the last
  /// ranking round, at index p − 1 (kNoSignature where none arrived) — the
  /// per-port labels, as the ids class_signatures() holds.
  const std::vector<PayloadId>& port_signatures() const noexcept {
    return port_signatures_;
  }

  /// A ranking round, send half: posts or broadcasts `payload` (a two-byte
  /// round prefix and the party's signature) as its own signature.
  void send_ranked(Outbox& out, std::string_view payload);

  /// A ranking round, receive half: every received payload must carry
  /// `prefix`; relabels by the byte order of all signatures, own included.
  /// Round B of each refinement step is one; a subclass may run its own.
  void rank(const Delivery& delivery, std::string_view prefix);

  /// Decides, if still undecided, once some class is a singleton: 1 for
  /// the holder of the smallest singleton signature, 0 for everyone else.
  void elect_first_singleton();

 private:
  Init init_;
  const PayloadArena* arena_ = nullptr;  // the run's arena (set on rank)
  int label_ = 0;
  int steps_ = 0;
  std::vector<int> class_sizes_;
  std::vector<PayloadId> class_signatures_;
  std::vector<PayloadId> port_signatures_;
  PayloadId own_signature_ = 0;  // interned by send_ranked
  std::vector<bool> bits_;
  // Two-round step bookkeeping:
  bool awaiting_rank_ = false;
  std::string pending_signature_;  // assembled in round A, ranked in B
};

/// Leader election on top of refinement: decide when a singleton class
/// exists; the leader is the holder of the lexicographically smallest
/// singleton signature.
class RefinementLeaderElectionAgent final : public RefinementAgent {
 protected:
  void on_step_complete() override;
};

/// m-leader election on top of refinement: decide when some sub-collection
/// of classes totals exactly m; leaders are the canonical (first in
/// include-preferring DFS over signature-sorted classes) such collection,
/// picked by select_class_split (algo/protocol.hpp) as the knowledge-level
/// wait-for-class-split-LE picks it. Throws InvalidArgument for m < 0.
class RefinementMLeaderElectionAgent final : public RefinementAgent {
 public:
  explicit RefinementMLeaderElectionAgent(int num_leaders);

 protected:
  void on_step_complete() override;

 private:
  int num_leaders_;
};

/// Delay- and reorder-tolerant leader election by one-shot gossip: in
/// round 1 every party transmits its random word once (as a fixed-width
/// hex string, so lexicographic order is numeric order); a party decides
/// as soon as it has observed the other n−1 words — whichever rounds the
/// scheduler delivers them in — outputting 1 iff its own word strictly
/// exceeds every word it saw (parties sharing a source share words, so
/// ties elect nobody). Because it transmits exactly once and counts
/// receipts, it is immune to any delivery schedule (the scheduler bench
/// pins this) but starves forever when a peer crashes before sending —
/// the crash-intolerant baseline the fault experiments contrast against.
class GossipLeaderElectionAgent final : public Agent {
 public:
  void begin(const Init& init) override;
  void send_phase(int round, std::uint64_t random_word, Outbox& out) override;
  void receive_phase(int round, const Delivery& delivery) override;

  /// Words observed so far (diagnostics).
  int words_seen() const noexcept { return static_cast<int>(seen_.size()); }

 private:
  Init init_;
  std::string own_word_;
  std::vector<PayloadId> seen_;  // interned word ids, resolved via arena_
  const PayloadArena* arena_ = nullptr;  // the run's arena (set on receive)
};

/// Roles in Algorithm 1; the V1/V2 split is an input of the algorithm
/// ("the separation is already known to all parties").
enum class MatchingRole { kV1, kV2, kBystander };

/// Algorithm 1's iterations once every party knows the V1/V2 split. Each
/// takes three rounds: an active V1 member sends REQ on a uniformly random
/// active V2 port (the round's random word modulo the number of such
/// ports, taken in ascending port order); an active V2 member that got
/// requests ACKs the smallest requesting port and broadcasts RET2; a newly
/// matched V1 member broadcasts RET1. Every party counts the RET1s, so all
/// learn together when V1 is exhausted.
class CreateMatchingRounds {
 public:
  /// Starts a matching: `own` is this party's role, `port_roles[p − 1]`
  /// that of the party at port p, and `active_v1` the size of V1.
  void start(MatchingRole own, std::vector<MatchingRole> port_roles,
             int active_v1);

  void send(std::uint64_t random_word, Outbox& out);

  /// True at the end of the retirement round that leaves no V1 member
  /// active (and at the end of every later round, which only counts).
  bool receive(const Delivery& delivery);

  MatchingRole role() const noexcept { return own_; }
  bool matched() const noexcept { return matched_; }

  /// REQ/ACK iterations since start() (diagnostics for E9).
  int iterations() const noexcept { return iterations_; }

 private:
  enum class Round { kRequest, kAcknowledge, kRetire };

  Round round_ = Round::kRequest;
  MatchingRole own_ = MatchingRole::kBystander;
  std::vector<MatchingRole> port_roles_;
  std::vector<char> port_active_;  // cleared by the port's RET1/RET2
  int active_v1_ = 0;
  int iterations_ = 0;
  bool matched_ = false;
  int pending_ack_port_ = 0;  // V2: minimal REQ port to ACK this iteration
  bool announce_retire_ = false;
  bool self_retirement_pending_ = false;  // V1: count own retirement once
};

/// Algorithm 1 on its own: one round in which every party announces its
/// role, then CreateMatchingRounds until V1 is exhausted.
class CreateMatchingAgent final : public Agent {
 public:
  explicit CreateMatchingAgent(MatchingRole role) : role_(role) {}

  void begin(const Init& init) override;
  void send_phase(int round, std::uint64_t random_word, Outbox& out) override;
  void receive_phase(int round, const Delivery& delivery) override;

  /// Outputs: 1 = matched, 0 = unmatched, -1 = bystander.
  static constexpr std::int64_t kMatched = 1;
  static constexpr std::int64_t kUnmatched = 0;
  static constexpr std::int64_t kBystander = -1;

  MatchingRole role() const noexcept { return role_; }

  /// Number of REQ/ACK iterations executed (diagnostics for E9).
  int iterations() const noexcept { return rounds_.iterations(); }

 private:
  MatchingRole role_;
  Init init_;
  bool announced_ = false;  // the roles round is over
  CreateMatchingRounds rounds_;
};

}  // namespace rsb::sim
