// Locality-aware agents for sparse topologies.
//
// Each agent here talks only on its own ports (Init::num_ports — its graph
// degree under a Topology) and never assumes the all-to-all wiring, so a
// round costs O(degree) messages and a full network round O(edges). They
// realize the classic randomized symmetry-breaking routines the locality
// literature measures (Barenboim–Elkin–Pettie–Schneider):
//
//  * LubyMISAgent — Luby-style maximal independent set in 2-round phases:
//    propose (broadcast this phase's random priority), then join (strict
//    local maxima enter the set and announce; their neighbors leave).
//  * TrialColoringAgent — randomized (Δ+1)-coloring in 2-round phases:
//    trial (broadcast a random color from the still-allowed palette),
//    then finalize (keep the color iff no neighbor trialed it; announce
//    so neighbors strike it from their palettes).
//  * RulingSet2Agent — (2,2)-ruling set in 4-round phases: priorities are
//    forwarded one extra hop so only 2-hop-local maxima join, and the
//    joiners' neighbors forward the retreat one hop so everything within
//    distance 2 of a ruler retires.
//
// All three decide irrevocably and transmit nothing afterwards, so a
// silent port reads as "that neighbor settled". Ties (adjacent parties on
// one shared randomness source draw identical words) stall the affected
// phase honestly — the run simply fails to terminate within the round
// budget instead of breaking validity, which the correlated-randomness
// experiments rely on.
//
// AgentRegistry is the agent backend's vocabulary (util/registry.hpp):
// canonical specs name agents ("agents=luby-mis") and resolve here to a
// Network::AgentFactory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "util/registry.hpp"

namespace rsb::graph {

/// Luby-style MIS. Outputs: 1 = in the set, 0 = dominated. Valid against
/// mis_task on the same topology.
class LubyMISAgent final : public sim::Agent {
 public:
  void begin(const Init& init) override;
  void send_phase(int round, std::uint64_t random_word,
                  sim::Outbox& out) override;
  void receive_phase(int round, const sim::Delivery& delivery) override;

 private:
  Init init_;
  std::string own_priority_;  // this phase's "p"-prefixed hex word
  bool pending_join_ = false;
};

/// Randomized (Δ+1)-coloring by trial colors. Outputs: the final color in
/// {0, ..., Δ}. Valid against coloring_task on the same topology.
class TrialColoringAgent final : public sim::Agent {
 public:
  void begin(const Init& init) override;
  void send_phase(int round, std::uint64_t random_word,
                  sim::Outbox& out) override;
  void receive_phase(int round, const sim::Delivery& delivery) override;

 private:
  Init init_;
  std::vector<bool> taken_;  // colors finalized by neighbors
  int trial_color_ = -1;
  bool conflicted_ = false;
};

/// (2,2)-ruling set via 2-hop priority forwarding. Outputs: 1 = ruler,
/// 0 = within distance 2 of one. Valid against ruling_set_2_task.
class RulingSet2Agent final : public sim::Agent {
 public:
  void begin(const Init& init) override;
  void send_phase(int round, std::uint64_t random_word,
                  sim::Outbox& out) override;
  void receive_phase(int round, const sim::Delivery& delivery) override;

 private:
  Init init_;
  std::string own_priority_;   // this phase's bare hex word
  std::string best_seen_;      // max over the closed neighborhood
  bool beaten_ = false;        // some 1- or 2-hop priority exceeds ours
  bool adjacent_to_ruler_ = false;
};

/// Agent factories by spec: luby-mis, trial-coloring, ruling-set-2 (this
/// file) and gossip-le (the clique-era GossipLeaderElectionAgent, so the
/// agent backend's canonical specs can also name the existing baseline).
using AgentRegistry = Registry<sim::Network::AgentFactory()>;

/// Shorthand over the global registry.
sim::Network::AgentFactory make_agents(const std::string& spec);

}  // namespace rsb::graph

template <>
const rsb::graph::AgentRegistry& rsb::graph::AgentRegistry::global();
