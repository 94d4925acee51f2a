#include "graph/agents.hpp"

#include <cstdio>
#include <memory>
#include <utility>

#include "algo/agents.hpp"

namespace rsb::graph {

namespace {

/// Fixed-width hex so lexicographic payload order is numeric word order
/// (the gossip-LE convention).
std::string hex_word(std::uint64_t word) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(word));
  return std::string(buffer);
}

}  // namespace

// ---------------------------------------------------------------- Luby MIS
//
// 2-round phases on rounds (2k−1, 2k):
//  round A (propose): every active party broadcasts "p" + hex(word);
//    a receiver is a pending joiner iff its own priority strictly exceeds
//    every proposal it heard (equal words — shared sources — beat nobody,
//    so neither of a tied pair joins and the phase retries).
//  round B (join): pending joiners broadcast "m" and decide 1; an active
//    receiver of any "m" is dominated and decides 0.
// Decided parties transmit nothing, so a proposal round only competes
// against still-active neighbors; an isolated or fully-settled
// neighborhood makes the party a trivial local maximum, which is exactly
// maximality.

void LubyMISAgent::begin(const Init& init) { init_ = init; }

void LubyMISAgent::send_phase(int round, std::uint64_t random_word,
                              sim::Outbox& out) {
  if (decided()) return;
  if (round % 2 == 1) {  // propose
    own_priority_ = "p" + hex_word(random_word);
    pending_join_ = false;
    if (init_.num_ports > 0) out.send_all(own_priority_);
  } else {  // join
    if (!pending_join_) return;
    if (init_.num_ports > 0) out.send_all("m");
    decide(1);
  }
}

void LubyMISAgent::receive_phase(int round, const sim::Delivery& delivery) {
  if (decided()) return;
  if (round % 2 == 1) {
    bool local_max = true;
    for (const auto& message : delivery.by_port) {
      const std::string_view text = delivery.text(message);
      if (!text.empty() && text.front() == 'p' && text >= own_priority_) {
        local_max = false;
        break;
      }
    }
    pending_join_ = local_max;
  } else {
    for (const auto& message : delivery.by_port) {
      if (delivery.text(message) == "m") {
        decide(0);
        return;
      }
    }
  }
}

// ---------------------------------------------------------- trial coloring
//
// 2-round phases:
//  round A (trial): an active party draws a color uniformly (word mod
//    palette) from the colors its neighbors have not finalized and
//    broadcasts "t" + color; a receiver is conflicted iff some neighbor
//    trialed the same color this phase.
//  round B (finalize): unconflicted parties broadcast "f" + color and
//    decide it; receivers strike finalized colors from their palettes.
// The palette has Δ+1 colors and at most degree ≤ Δ can ever be taken,
// so the allowed set is never empty.

void TrialColoringAgent::begin(const Init& init) {
  init_ = init;
  taken_.assign(static_cast<std::size_t>(init.max_degree) + 1, false);
}

void TrialColoringAgent::send_phase(int round, std::uint64_t random_word,
                                    sim::Outbox& out) {
  if (decided()) return;
  if (round % 2 == 1) {  // trial
    std::vector<int> allowed;
    for (std::size_t c = 0; c < taken_.size(); ++c) {
      if (!taken_[c]) allowed.push_back(static_cast<int>(c));
    }
    trial_color_ = allowed[static_cast<std::size_t>(
        random_word % static_cast<std::uint64_t>(allowed.size()))];
    conflicted_ = false;
    if (init_.num_ports > 0) {
      out.send_all("t" + std::to_string(trial_color_));
    }
  } else {  // finalize
    if (conflicted_) return;
    if (init_.num_ports > 0) {
      out.send_all("f" + std::to_string(trial_color_));
    }
    decide(trial_color_);
  }
}

void TrialColoringAgent::receive_phase(int round,
                                       const sim::Delivery& delivery) {
  if (decided()) return;
  if (round % 2 == 1) {
    const std::string own = "t" + std::to_string(trial_color_);
    for (const auto& message : delivery.by_port) {
      if (delivery.text(message) == own) {
        conflicted_ = true;
        break;
      }
    }
  } else {
    for (const auto& message : delivery.by_port) {
      const std::string_view text = delivery.text(message);
      if (text.empty() || text.front() != 'f') continue;
      const int color = std::stoi(std::string(text.substr(1)));
      if (color >= 0 && color < static_cast<int>(taken_.size())) {
        taken_[static_cast<std::size_t>(color)] = true;
      }
    }
  }
}

// ---------------------------------------------------------- 2-ruling set
//
// 4-round phases:
//  R1 (propose): active parties broadcast their hex priority; everyone
//    records the maximum over its closed neighborhood.
//  R2 (forward): broadcast "q" + that 1-hop maximum, extending every
//    party's horizon to distance 2. A party is beaten iff some received
//    priority — direct or forwarded — strictly exceeds its own (its own
//    value echoed back is not a competitor).
//  R3 (join): unbeaten parties are 2-hop-local maxima: broadcast "m",
//    decide 1. Receivers of "m" mark themselves ruler-adjacent.
//  R4 (retreat): ruler-adjacent actives broadcast "n" and decide 0
//    (distance 1); active receivers of "n" decide 0 (distance 2).
// Rulers joined in different phases are never adjacent: a ruler's whole
// neighborhood decides 0 in its phase's R4, so it never competes again.

void RulingSet2Agent::begin(const Init& init) { init_ = init; }

void RulingSet2Agent::send_phase(int round, std::uint64_t random_word,
                                 sim::Outbox& out) {
  if (decided()) return;
  switch ((round - 1) % 4) {
    case 0:  // propose
      own_priority_ = hex_word(random_word);
      best_seen_ = own_priority_;
      beaten_ = false;
      adjacent_to_ruler_ = false;
      if (init_.num_ports > 0) out.send_all("p" + own_priority_);
      break;
    case 1:  // forward the 1-hop max
      if (init_.num_ports > 0) out.send_all("q" + best_seen_);
      break;
    case 2:  // join
      if (beaten_) break;
      if (init_.num_ports > 0) out.send_all("m");
      decide(1);
      break;
    case 3:  // retreat
      if (!adjacent_to_ruler_) break;
      if (init_.num_ports > 0) out.send_all("n");
      decide(0);
      break;
  }
}

void RulingSet2Agent::receive_phase(int round,
                                    const sim::Delivery& delivery) {
  if (decided()) return;
  switch ((round - 1) % 4) {
    case 0:
      for (const auto& message : delivery.by_port) {
        const std::string_view text = delivery.text(message);
        if (text.empty() || text.front() != 'p') continue;
        const std::string_view priority = text.substr(1);
        if (priority > best_seen_) best_seen_ = std::string(priority);
        if (priority > own_priority_) beaten_ = true;
      }
      break;
    case 1:
      for (const auto& message : delivery.by_port) {
        const std::string_view text = delivery.text(message);
        if (text.empty() || text.front() != 'q') continue;
        if (text.substr(1) > own_priority_) beaten_ = true;
      }
      break;
    case 2:
      for (const auto& message : delivery.by_port) {
        if (delivery.text(message) == "m") {
          adjacent_to_ruler_ = true;
          break;
        }
      }
      break;
    case 3:
      for (const auto& message : delivery.by_port) {
        if (delivery.text(message) == "n") {
          decide(0);
          return;
        }
      }
      break;
  }
}

// ---------------------------------------------------------------- registry

sim::Network::AgentFactory make_agents(const std::string& spec) {
  return AgentRegistry::global().make(spec);
}

}  // namespace rsb::graph

template <>
const rsb::graph::AgentRegistry& rsb::graph::AgentRegistry::global() {
  using Args = const std::vector<int>&;
  using Factory = sim::Network::AgentFactory;
  static const auto* registry = new Registry(
      "agent",
      {
          {"luby-mis", 0,
           "Luby-style maximal independent set (2-round propose/join "
           "phases; pair with task mis)",
           [](Args) -> Factory {
             return [](int) { return std::make_unique<graph::LubyMISAgent>(); };
           }},
          {"trial-coloring", 0,
           "randomized (Δ+1)-coloring by trial colors (pair with task "
           "coloring)",
           [](Args) -> Factory {
             return [](int) {
               return std::make_unique<graph::TrialColoringAgent>();
             };
           }},
          {"ruling-set-2", 0,
           "(2,2)-ruling set via 2-hop priority forwarding (pair with "
           "task 2-ruling-set)",
           [](Args) -> Factory {
             return [](int) {
               return std::make_unique<graph::RulingSet2Agent>();
             };
           }},
          {"gossip-le", 0,
           "one-shot gossip leader election (the clique baseline; "
           "delay-tolerant, crash-intolerant)",
           [](Args) -> Factory {
             return [](int) {
               return std::make_unique<sim::GossipLeaderElectionAgent>();
             };
           }},
      });
  return *registry;
}
