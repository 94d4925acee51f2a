#include "algo/agents.hpp"

#include <algorithm>
#include <cstdio>

#include "algo/protocol.hpp"
#include "util/error.hpp"

namespace rsb::sim {

namespace {

constexpr char kSigPrefix[] = "S|";
constexpr char kRankPrefix[] = "R|";

bool has_prefix(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

void RefinementAgent::begin(const Init& init) {
  init_ = init;
  if (init.model == Model::kMessagePassing) {
    port_signatures_.assign(static_cast<std::size_t>(init.num_parties - 1),
                            kNoSignature);
  }
}

void RefinementAgent::send_phase(int round, std::uint64_t random_word,
                                 Outbox& out) {
  (void)round;
  if (!awaiting_rank_) {
    // Round A: transmit the previous step's label. The current round's bit
    // is consumed here but never transmitted — Eqs. (1)/(2): messages carry
    // time-(s−1) state; a party learns the others' round-s bits only at
    // step s+1.
    const bool bit = (random_word & 1ULL) != 0;
    bits_.push_back(bit);
    if (init_.model == Model::kBlackboard) {
      out.post(kSigPrefix + std::to_string(label_));
    } else {
      for (int port = 1; port <= init_.num_parties - 1; ++port) {
        // The outgoing port number rides along — the reciprocal tag of the
        // port-tagged model.
        out.send(port, std::string(kSigPrefix) + std::to_string(label_) + "|" +
                           std::to_string(port));
      }
    }
  } else {
    // Round B: broadcast the completed signature for rank agreement.
    send_ranked(out, kRankPrefix + pending_signature_);
  }
}

void RefinementAgent::receive_phase(int round, const Delivery& delivery) {
  (void)round;
  if (!awaiting_rank_) {
    // End of round A: assemble the signature from own (label, bit) and the
    // received labels — a multiset on the blackboard (Eq. 1), a
    // port-indexed tagged tuple in the message-passing model (Eq. 2).
    std::string sig =
        std::to_string(label_) + "|" + (bits_.back() ? "1" : "0");
    if (init_.model == Model::kBlackboard) {
      std::vector<std::string> received;
      for (const PayloadId id : delivery.board) {
        const std::string_view payload = delivery.text(id);
        if (!has_prefix(payload, kSigPrefix)) {
          throw ValidationError("RefinementAgent: unexpected board payload '" +
                                std::string(payload) + "'");
        }
        received.emplace_back(payload.substr(2));
      }
      std::sort(received.begin(), received.end());
      sig += "|{";
      for (std::size_t i = 0; i < received.size(); ++i) {
        if (i != 0) sig += ",";
        sig += received[i];
      }
      sig += "}";
    } else {
      for (const auto& msg : delivery.by_port) {  // sorted by (port, payload)
        const std::string_view payload = delivery.text(msg);
        if (!has_prefix(payload, kSigPrefix)) {
          throw ValidationError("RefinementAgent: unexpected port payload '" +
                                std::string(payload) + "'");
        }
        sig += "|" + std::to_string(msg.port) + ":";
        sig += payload.substr(2);
      }
    }
    pending_signature_ = std::move(sig);
    awaiting_rank_ = true;
    return;
  }
  // End of round B: rank agreement over all n signatures.
  awaiting_rank_ = false;
  rank(delivery, kRankPrefix);
  ++steps_;
  on_step_complete();
}

std::string_view RefinementAgent::own_signature_text() const {
  return arena_->view(own_signature_).substr(2);
}

void RefinementAgent::send_ranked(Outbox& out, std::string_view payload) {
  // The Outbox hands back the interned id — that id *is* the party's own
  // signature for the round (interning makes equal bytes equal ids).
  own_signature_ = init_.model == Model::kBlackboard ? out.post(payload)
                                                      : out.send_all(payload);
}

void RefinementAgent::rank(const Delivery& delivery,
                           std::string_view prefix) {
  arena_ = delivery.arena;
  std::vector<PayloadId> all;
  const auto take = [&](PayloadId id) {
    if (!has_prefix(delivery.text(id), prefix)) {
      throw ValidationError("RefinementAgent: unexpected rank payload '" +
                            std::string(delivery.text(id)) + "'");
    }
    all.push_back(id);
  };
  if (init_.model == Model::kBlackboard) {
    for (const PayloadId id : delivery.board) take(id);
  } else {
    std::fill(port_signatures_.begin(), port_signatures_.end(), kNoSignature);
    for (const auto& msg : delivery.by_port) {
      take(msg.payload);
      port_signatures_[static_cast<std::size_t>(msg.port - 1)] = msg.payload;
    }
  }
  all.push_back(own_signature_);
  // Every payload of the round carries one prefix, so sorting the full
  // payload bytes orders exactly as the stripped signatures would.
  const PayloadArena& arena = *arena_;
  std::sort(all.begin(), all.end(),
            [&arena](PayloadId a, PayloadId b) { return arena.less(a, b); });
  // Distinct signatures in sorted order define the label space; id
  // equality is byte equality within the run's arena.
  class_signatures_.clear();
  class_sizes_.clear();
  for (const PayloadId sig : all) {
    if (class_signatures_.empty() || class_signatures_.back() != sig) {
      class_signatures_.push_back(sig);
      class_sizes_.push_back(1);
    } else {
      ++class_sizes_.back();
    }
    if (sig == own_signature_) {
      label_ = static_cast<int>(class_signatures_.size()) - 1;
    }
  }
}

void RefinementAgent::elect_first_singleton() {
  if (decided()) return;
  const auto singleton =
      std::find(class_sizes_.begin(), class_sizes_.end(), 1);
  if (singleton == class_sizes_.end()) return;
  decide(singleton - class_sizes_.begin() == label_ ? 1 : 0);
}

void RefinementLeaderElectionAgent::on_step_complete() {
  elect_first_singleton();
}

RefinementMLeaderElectionAgent::RefinementMLeaderElectionAgent(int num_leaders)
    : num_leaders_(num_leaders) {
  if (num_leaders < 0) {
    throw InvalidArgument("RefinementMLeaderElectionAgent: m must be >= 0");
  }
}

void RefinementMLeaderElectionAgent::on_step_complete() {
  if (decided()) return;
  std::vector<bool> chosen;
  if (select_class_split(class_sizes(), num_leaders_, chosen)) {
    decide(chosen[static_cast<std::size_t>(label())] ? 1 : 0);
  }
}

namespace {

constexpr char kRolePrefix[] = "ROLE|";
constexpr char kReq[] = "REQ";
constexpr char kAck[] = "ACK";
constexpr char kRetireV1[] = "RET1";
constexpr char kRetireV2[] = "RET2";

std::string role_payload(MatchingRole role) {
  switch (role) {
    case MatchingRole::kV1:
      return std::string(kRolePrefix) + "1";
    case MatchingRole::kV2:
      return std::string(kRolePrefix) + "2";
    case MatchingRole::kBystander:
      return std::string(kRolePrefix) + "0";
  }
  return {};
}

MatchingRole parse_role(std::string_view payload) {
  if (payload == std::string(kRolePrefix) + "1") return MatchingRole::kV1;
  if (payload == std::string(kRolePrefix) + "2") return MatchingRole::kV2;
  if (payload == std::string(kRolePrefix) + "0") {
    return MatchingRole::kBystander;
  }
  throw ValidationError("CreateMatchingAgent: bad role payload '" +
                        std::string(payload) + "'");
}

}  // namespace

void GossipLeaderElectionAgent::begin(const Init& init) { init_ = init; }

void GossipLeaderElectionAgent::send_phase(int round,
                                           std::uint64_t random_word,
                                           Outbox& out) {
  if (round != 1) return;  // one-shot gossip: transmit exactly once
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(random_word));
  own_word_.assign(buffer);
  if (init_.model == Model::kBlackboard) {
    out.post(own_word_);
  } else {
    out.send_all(own_word_);
  }
}

void GossipLeaderElectionAgent::receive_phase(int round,
                                              const Delivery& delivery) {
  (void)round;
  arena_ = delivery.arena;  // ids stay valid for the rest of the run
  if (init_.model == Model::kBlackboard) {
    for (const PayloadId id : delivery.board) {
      seen_.push_back(id);
    }
  } else {
    for (const PortMessage& message : delivery.by_port) {
      seen_.push_back(message.payload);
    }
  }
  if (decided() ||
      static_cast<int>(seen_.size()) < init_.num_parties - 1) {
    return;
  }
  bool strictly_largest = true;
  const std::string_view own(own_word_);
  for (const PayloadId word : seen_) {
    strictly_largest = strictly_largest && own > arena_->view(word);
  }
  decide(strictly_largest ? 1 : 0);
}

void CreateMatchingRounds::start(MatchingRole own,
                                 std::vector<MatchingRole> port_roles,
                                 int active_v1) {
  round_ = Round::kRequest;
  own_ = own;
  port_roles_ = std::move(port_roles);
  port_active_.assign(port_roles_.size(), 1);
  active_v1_ = active_v1;
  iterations_ = 0;
  matched_ = false;
  pending_ack_port_ = 0;
  announce_retire_ = false;
  self_retirement_pending_ = false;
}

void CreateMatchingRounds::send(std::uint64_t random_word, Outbox& out) {
  switch (round_) {
    case Round::kRequest: {
      if (own_ != MatchingRole::kV1 || matched_) break;
      std::vector<int> active_v2_ports;
      for (std::size_t p = 0; p < port_roles_.size(); ++p) {
        if (port_roles_[p] == MatchingRole::kV2 && port_active_[p] != 0) {
          active_v2_ports.push_back(static_cast<int>(p) + 1);
        }
      }
      if (active_v2_ports.empty()) {
        throw ValidationError(
            "CreateMatchingRounds: active V1 with no active V2 port — "
            "requires |V1| <= |V2|");
      }
      // Uniform pick from the round's random word (64-bit word modulo m;
      // the bias is <= m / 2^64, far below experimental resolution).
      const std::size_t index =
          static_cast<std::size_t>(random_word % active_v2_ports.size());
      out.send(active_v2_ports[index], kReq);
      break;
    }
    case Round::kAcknowledge:
      if (pending_ack_port_ != 0) {
        out.send(pending_ack_port_, kAck);
        out.send_all(kRetireV2);
        matched_ = true;
        pending_ack_port_ = 0;
      }
      break;
    case Round::kRetire:
      if (announce_retire_) {
        out.send_all(kRetireV1);
        announce_retire_ = false;
      }
      break;
  }
}

bool CreateMatchingRounds::receive(const Delivery& delivery) {
  switch (round_) {
    case Round::kRequest:
      if (own_ == MatchingRole::kV2 && !matched_) {
        int min_port = 0;
        for (const auto& msg : delivery.by_port) {
          if (delivery.text(msg) == kReq &&
              (min_port == 0 || msg.port < min_port)) {
            min_port = msg.port;
          }
        }
        pending_ack_port_ = min_port;  // 0 if no request arrived
      }
      round_ = Round::kAcknowledge;
      return false;
    case Round::kAcknowledge:
      for (const auto& msg : delivery.by_port) {
        const std::string_view payload = delivery.text(msg);
        if (payload == kAck && own_ == MatchingRole::kV1 && !matched_) {
          matched_ = true;
          announce_retire_ = true;
          self_retirement_pending_ = true;
        }
        if (payload == kRetireV2) {
          port_active_[static_cast<std::size_t>(msg.port - 1)] = 0;
        }
      }
      round_ = Round::kRetire;
      return false;
    case Round::kRetire:
      for (const auto& msg : delivery.by_port) {
        if (delivery.text(msg) == kRetireV1) {
          port_active_[static_cast<std::size_t>(msg.port - 1)] = 0;
          --active_v1_;
        }
      }
      if (self_retirement_pending_) {
        // Own retirement also shrinks the active V1 population, once.
        --active_v1_;
        self_retirement_pending_ = false;
      }
      ++iterations_;
      if (active_v1_ == 0) return true;
      round_ = Round::kRequest;
      return false;
  }
  return false;
}

void CreateMatchingAgent::begin(const Init& init) {
  if (init.model != Model::kMessagePassing) {
    throw InvalidArgument(
        "CreateMatchingAgent: Algorithm 1 runs on the message-passing model");
  }
  init_ = init;
}

void CreateMatchingAgent::send_phase(int round, std::uint64_t random_word,
                                     Outbox& out) {
  (void)round;
  if (announced_) {
    rounds_.send(random_word, out);
  } else {
    out.send_all(role_payload(role_));
  }
}

void CreateMatchingAgent::receive_phase(int round, const Delivery& delivery) {
  (void)round;
  if (announced_) {
    if (rounds_.receive(delivery) && !decided()) {
      decide(rounds_.matched() ? kMatched : kUnmatched);
    }
    return;
  }
  std::vector<MatchingRole> port_roles(
      static_cast<std::size_t>(init_.num_ports), MatchingRole::kBystander);
  int v1 = role_ == MatchingRole::kV1 ? 1 : 0;
  int v2 = role_ == MatchingRole::kV2 ? 1 : 0;
  for (const auto& msg : delivery.by_port) {
    const MatchingRole role = parse_role(delivery.text(msg));
    port_roles[static_cast<std::size_t>(msg.port - 1)] = role;
    v1 += role == MatchingRole::kV1 ? 1 : 0;
    v2 += role == MatchingRole::kV2 ? 1 : 0;
  }
  if (v1 > v2) {
    throw ValidationError(
        "CreateMatchingAgent: |V1| > |V2| violates Algorithm 1's "
        "assumption");
  }
  if (role_ == MatchingRole::kBystander) decide(kBystander);
  if (v1 == 0) {
    if (!decided()) decide(kUnmatched);
    return;
  }
  rounds_.start(role_, std::move(port_roles), v1);
  announced_ = true;
}

}  // namespace rsb::sim
