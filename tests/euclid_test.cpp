// Tests for the explicit Euclid-style leader election (Theorem 4.2 'if'):
// correctness (exactly one leader, agreement, all-decide), gcd-1 coverage
// across wirings and seeds, correct non-termination under the adversarial
// wiring with gcd > 1, and the class-size trajectory of Lemma 4.7. The
// agents' golden pin (Agents.OutcomesMatchTheGolden) fixes every message
// agent's observable behaviour byte for byte.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algo/agents.hpp"
#include "algo/euclid.hpp"
#include "engine/engine.hpp"
#include "golden_util.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace rsb {
namespace {

struct EuclidRun {
  sim::Network::Outcome outcome;
  std::vector<std::vector<int>> final_class_sizes;  // per party
  std::vector<int> matchings_run;                   // per party
};

EuclidRun run_euclid(const SourceConfiguration& config,
                     const PortAssignment& ports, std::uint64_t seed,
                     int max_rounds) {
  std::vector<sim::EuclidLeaderElectionAgent*> agents(
      static_cast<std::size_t>(config.num_parties()));
  sim::Network net(Model::kMessagePassing, config, seed, ports,
                   [&agents](int party) {
                     auto a =
                         std::make_unique<sim::EuclidLeaderElectionAgent>();
                     agents[static_cast<std::size_t>(party)] = a.get();
                     return a;
                   });
  EuclidRun run;
  run.outcome = net.run(max_rounds);
  // Harvest diagnostics while the network (which owns the agents) lives.
  for (const auto* agent : agents) {
    run.final_class_sizes.push_back(agent->class_sizes());
    run.matchings_run.push_back(agent->matchings_run());
  }
  return run;
}

void expect_one_leader(const EuclidRun& run) {
  const auto& outcome = run.outcome;
  ASSERT_TRUE(outcome.all_decided);
  int leaders = 0;
  for (std::int64_t v : outcome.outputs) {
    EXPECT_TRUE(v == 0 || v == 1);
    leaders += v == 1 ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Euclid, ElectsWithPrivateSources) {
  const auto config = SourceConfiguration::all_private(4);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_one_leader(
        run_euclid(config, PortAssignment::cyclic(4), seed, 2000));
  }
}

TEST(Euclid, ElectsOnCoprimeLoadsCyclic) {
  // The paper's flagship case: {2,3}, gcd 1, no singleton source.
  const auto config = SourceConfiguration::from_loads({2, 3});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_one_leader(
        run_euclid(config, PortAssignment::cyclic(5), seed, 2000));
  }
}

TEST(Euclid, ElectsOnCoprimeLoadsRandomWirings) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  Xoshiro256StarStar rng(555);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const PortAssignment ports = PortAssignment::random(5, rng);
    expect_one_leader(run_euclid(config, ports, seed, 2000));
  }
}

TEST(Euclid, ElectsOnLargerCoprimeLoads) {
  const auto config = SourceConfiguration::from_loads({3, 4});
  expect_one_leader(
      run_euclid(config, PortAssignment::cyclic(7), /*seed=*/3, 4000));
}

TEST(Euclid, AllDecideInTheSameRound) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const auto run =
      run_euclid(config, PortAssignment::cyclic(5), /*seed=*/4, 2000);
  ASSERT_TRUE(run.outcome.all_decided);
  for (int r : run.outcome.decision_round) {
    EXPECT_EQ(r, run.outcome.decision_round[0]);
  }
}

TEST(Euclid, NeverTerminatesUnderAdversarialGcd2) {
  // Lemma 4.3: classes stay multiples of 2 forever.
  const auto config = SourceConfiguration::from_loads({2, 4});
  const PortAssignment ports = PortAssignment::adversarial_for(config);
  const auto run = run_euclid(config, ports, /*seed=*/5, 600);
  EXPECT_FALSE(run.outcome.all_decided);
  // The observed class sizes must all be multiples of g = 2 throughout;
  // check the final snapshot of every party.
  for (const auto& sizes : run.final_class_sizes) {
    for (int size : sizes) {
      EXPECT_EQ(size % 2, 0);
    }
  }
}

TEST(Euclid, SharedSourceSymmetricWiringNeverTerminates) {
  const auto config = SourceConfiguration::all_shared(4);
  const PortAssignment ports = PortAssignment::adversarial(4, 4);
  const auto run = run_euclid(config, ports, /*seed=*/6, 400);
  EXPECT_FALSE(run.outcome.all_decided);
}

TEST(Euclid, MatchingPhasesActuallyRun) {
  // On {2,3} with the symmetric cyclic wiring, at least one execution
  // exercises the matching machinery (classes {2,3} with no singleton).
  const auto config = SourceConfiguration::from_loads({2, 3});
  bool some_matching = false;
  for (std::uint64_t seed = 1; seed <= 12 && !some_matching; ++seed) {
    const auto run =
        run_euclid(config, PortAssignment::cyclic(5), seed, 2000);
    ASSERT_TRUE(run.outcome.all_decided);
    some_matching = run.matchings_run[0] > 0;
  }
  EXPECT_TRUE(some_matching)
      << "no run used CreateMatching — the Euclid path is untested";
}

TEST(Euclid, AgentsAgreeOnClassSizes) {
  const auto config = SourceConfiguration::from_loads({2, 2, 1});
  const auto run =
      run_euclid(config, PortAssignment::cyclic(5), /*seed=*/7, 2000);
  ASSERT_TRUE(run.outcome.all_decided);
  for (std::size_t i = 1; i < run.final_class_sizes.size(); ++i) {
    EXPECT_EQ(run.final_class_sizes[i], run.final_class_sizes[0]);
  }
}

TEST(Euclid, RejectsBlackboardModel) {
  const auto config = SourceConfiguration::all_private(3);
  EXPECT_THROW(
      sim::Network(Model::kBlackboard, config, 1, std::nullopt,
                   [](int) {
                     return std::make_unique<sim::EuclidLeaderElectionAgent>();
                   }),
      InvalidArgument);
}

TEST(Euclid, SoloPartyElectsItself) {
  const auto config = SourceConfiguration::all_private(1);
  // n = 1: the clique has no edges; PortAssignment::cyclic(1) has zero
  // ports per party.
  const auto run =
      run_euclid(config, PortAssignment::cyclic(1), /*seed=*/1, 10);
  ASSERT_TRUE(run.outcome.all_decided);
  EXPECT_EQ(run.outcome.outputs, (std::vector<std::int64_t>{1}));
}

// ------------------------------------------------ the agents' golden pin

template <typename T>
std::string joined(const std::vector<T>& values, const char* separator) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += separator;
    out += std::to_string(values[i]);
  }
  return out;
}

/// One per-party field: the common value once where every party agrees,
/// else every party's value, '/'-separated.
std::string per_party(const std::vector<std::string>& values) {
  bool same = true;
  for (const std::string& value : values) same = same && value == values[0];
  if (same && !values.empty()) return values[0];
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += "/";
    out += values[i];
  }
  return out;
}

/// What an agent exposes beyond its output: matchings and class sizes
/// (Euclid), label, steps and class sizes (refinement), iterations
/// (CreateMatching).
std::string diagnostics(const sim::Agent& agent) {
  if (const auto* euclid =
          dynamic_cast<const sim::EuclidLeaderElectionAgent*>(&agent)) {
    return "m" + std::to_string(euclid->matchings_run()) + "[" +
           joined(euclid->class_sizes(), ",") + "]";
  }
  if (const auto* refine = dynamic_cast<const sim::RefinementAgent*>(&agent)) {
    return "l" + std::to_string(refine->label()) + "k" +
           std::to_string(refine->steps()) + "[" +
           joined(refine->class_sizes(), ",") + "]";
  }
  if (const auto* matching =
          dynamic_cast<const sim::CreateMatchingAgent*>(&agent)) {
    return "i" + std::to_string(matching->iterations());
  }
  return "";
}

/// rounds, all-decided, outputs ('.' where undecided), decision rounds and
/// the agents' diagnostics of one run.
std::string outcome_line(int rounds, bool all_decided,
                         const std::vector<std::int64_t>& outputs,
                         const std::vector<int>& decision_round,
                         const std::vector<std::string>& agents) {
  std::string out = " rounds=" + std::to_string(rounds) +
                    " decided=" + (all_decided ? "1" : "0") + " out=";
  std::vector<std::string> at;
  for (std::size_t p = 0; p < outputs.size(); ++p) {
    out += decision_round[p] < 0 ? "." : std::to_string(outputs[p]);
    at.push_back(std::to_string(decision_round[p]));
  }
  return out + " at=" + per_party(at) + " agents=" + per_party(agents) + "\n";
}

std::string network_line(sim::Network& net, int max_rounds) {
  const sim::Network::Outcome outcome = net.run(max_rounds);
  std::vector<std::string> agents;
  for (int p = 0; p < net.num_parties(); ++p) {
    agents.push_back(diagnostics(net.agent(p)));
  }
  return outcome_line(outcome.rounds, outcome.all_decided, outcome.outputs,
                      outcome.decision_round, agents);
}

/// Forwards every phase to an inner agent, mirroring its decision, and
/// writes the inner agent's diagnostics to its party's slot when the
/// engine tears the run's network down.
class Recorded final : public sim::Agent {
 public:
  Recorded(std::unique_ptr<sim::Agent> inner, std::string* slot)
      : inner_(std::move(inner)), slot_(slot) {}
  ~Recorded() override { *slot_ = diagnostics(*inner_); }

  void begin(const Init& init) override { inner_->begin(init); }
  void send_phase(int round, std::uint64_t random_word,
                  sim::Outbox& out) override {
    inner_->send_phase(round, random_word, out);
    mirror();
  }
  void receive_phase(int round, const sim::Delivery& delivery) override {
    inner_->receive_phase(round, delivery);
    mirror();
  }

 private:
  void mirror() {
    if (inner_->decided() && !decided()) decide(inner_->output());
  }

  std::unique_ptr<sim::Agent> inner_;
  std::string* slot_;
};

/// Runs seeds 1–16 of `spec` (whose agents `make` builds) one at a time
/// through an Engine, one line per run with the crash schedule.
std::string engine_lines(
    const std::string& label, Experiment spec,
    const std::function<std::unique_ptr<sim::Agent>(int)>& make) {
  const int n = spec.config.num_parties();
  auto slots = std::make_shared<std::vector<std::string>>(
      static_cast<std::size_t>(n));
  spec.with_agents([make, slots](int party) {
    return std::make_unique<Recorded>(
        make(party), &(*slots)[static_cast<std::size_t>(party)]);
  });
  spec.with_seeds(1, 16);
  Engine engine;
  std::string out;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const ProtocolOutcome outcome = engine.run(spec, seed);
    out += label + " seed=" + std::to_string(seed) + " crash=" +
           joined(outcome.crash_round, ",") +
           outcome_line(outcome.rounds, outcome.terminated, outcome.outputs,
                        outcome.decision_round, *slots);
  }
  return out;
}

TEST(Agents, OutcomesMatchTheGolden) {
  std::string golden;
  // Euclid over coprime loads and all-private 4, under the cyclic wiring,
  // the Lemma 4.3 adversarial wiring and three random ones.
  const std::vector<std::vector<int>> euclid_loads = {
      {2, 3}, {3, 5}, {2, 2, 3}, {1, 2, 4}, {1, 1, 1, 1}};
  for (const std::vector<int>& loads : euclid_loads) {
    const auto config = SourceConfiguration::from_loads(loads);
    const int n = config.num_parties();
    std::vector<std::pair<std::string, PortAssignment>> wirings = {
        {"cyclic", PortAssignment::cyclic(n)},
        {"adversarial", PortAssignment::adversarial_for(config)}};
    for (std::uint64_t port_seed : {101, 202, 303}) {
      Xoshiro256StarStar rng(port_seed);
      wirings.emplace_back("random" + std::to_string(port_seed),
                           PortAssignment::random(n, rng));
    }
    for (const auto& [wiring, ports] : wirings) {
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        sim::Network net(Model::kMessagePassing, config, seed, ports, [](int) {
          return std::make_unique<sim::EuclidLeaderElectionAgent>();
        });
        golden += "euclid loads={" + joined(loads, ",") + "} ports=" +
                  wiring + " seed=" + std::to_string(seed) +
                  network_line(net, 2000);
      }
    }
  }
  // gcd 2 under the adversarial wiring: never terminates (Lemma 4.3).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto config = SourceConfiguration::from_loads({2, 4});
    sim::Network net(Model::kMessagePassing, config, seed,
                     PortAssignment::adversarial_for(config), [](int) {
                       return std::make_unique<sim::EuclidLeaderElectionAgent>();
                     });
    golden += "euclid loads={2,4} ports=adversarial seed=" +
              std::to_string(seed) + network_line(net, 600);
  }
  // One crash per run, through the Engine: in the first 16 rounds under
  // the symmetric wirings, where matching phases run, and in the first 8
  // under random ones.
  const std::vector<std::tuple<std::vector<int>, PortPolicy, int>>
      euclid_crashes = {{{2, 3}, PortPolicy::kCyclic, 16},
                        {{3, 5}, PortPolicy::kCyclic, 16},
                        {{1, 2, 4}, PortPolicy::kAdversarial, 16},
                        {{2, 2, 3}, PortPolicy::kRandomPerRun, 8}};
  for (const auto& [loads, policy, window] : euclid_crashes) {
    golden += engine_lines(
        "euclid-crash loads={" + joined(loads, ",") + "} window=" +
            std::to_string(window),
        Experiment::message_passing(SourceConfiguration::from_loads(loads),
                                    policy)
            .with_port_seed(7)
            .with_faults(sim::FaultPlan::crash_stop(1, window))
            .with_rounds(400),
        [](int) { return std::make_unique<sim::EuclidLeaderElectionAgent>(); });
  }
  // CreateMatching at several (|V1|, |V2|, bystanders), fault-free and
  // with one crash.
  for (const auto& [n1, n2, bystanders] :
       std::vector<std::tuple<int, int, int>>{{0, 3, 1},
                                              {1, 1, 0},
                                              {1, 3, 1},
                                              {2, 3, 0},
                                              {2, 5, 2},
                                              {3, 4, 1},
                                              {4, 4, 0}}) {
    const int n = n1 + n2 + bystanders;
    const auto make = [n1, n2](int party) {
      sim::MatchingRole role = sim::MatchingRole::kBystander;
      if (party < n1) {
        role = sim::MatchingRole::kV1;
      } else if (party < n1 + n2) {
        role = sim::MatchingRole::kV2;
      }
      return std::make_unique<sim::CreateMatchingAgent>(role);
    };
    const std::string shape = "{" + std::to_string(n1) + "," +
                              std::to_string(n2) + "," +
                              std::to_string(bystanders) + "}";
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      sim::Network net(Model::kMessagePassing,
                       SourceConfiguration::all_private(n), seed,
                       PortAssignment::cyclic(n), make);
      golden += "matching shape=" + shape + " seed=" + std::to_string(seed) +
                network_line(net, 4000);
    }
    golden += engine_lines(
        "matching-crash shape=" + shape,
        Experiment::message_passing(SourceConfiguration::all_private(n))
            .with_port_seed(11)
            .with_faults(sim::FaultPlan::crash_stop(1))
            .with_rounds(60),
        make);
  }
  // Refinement leader election and m-leader election on both models.
  const std::vector<std::pair<std::string, std::function<std::unique_ptr<
                                               sim::Agent>(int)>>>
      refiners = {
          {"refine-LE",
           [](int) {
             return std::make_unique<sim::RefinementLeaderElectionAgent>();
           }},
          {"refine-2LE",
           [](int) {
             return std::make_unique<sim::RefinementMLeaderElectionAgent>(2);
           }},
          {"refine-3LE",
           [](int) {
             return std::make_unique<sim::RefinementMLeaderElectionAgent>(3);
           }},
      };
  for (const auto& [name, make] : refiners) {
    for (const std::vector<int>& loads : std::vector<std::vector<int>>{
             {2, 3}, {1, 2, 4}, {2, 4}, {1, 1, 1, 1, 1}}) {
      const auto config = SourceConfiguration::from_loads(loads);
      const int n = config.num_parties();
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::Network board(Model::kBlackboard, config, seed, std::nullopt,
                           make);
        golden += name + " blackboard loads={" + joined(loads, ",") +
                  "} seed=" + std::to_string(seed) + network_line(board, 200);
        sim::Network cyclic(Model::kMessagePassing, config, seed,
                            PortAssignment::cyclic(n), make);
        golden += name + " cyclic loads={" + joined(loads, ",") +
                  "} seed=" + std::to_string(seed) + network_line(cyclic, 200);
      }
    }
    golden += engine_lines(
        name + "-crash blackboard loads={2,3,3}",
        Experiment::blackboard(SourceConfiguration::from_loads({2, 3, 3}))
            .with_faults(sim::FaultPlan::crash_stop(1))
            .with_rounds(100),
        make);
    golden += engine_lines(
        name + "-crash random loads={2,3,3}",
        Experiment::message_passing(SourceConfiguration::from_loads({2, 3, 3}))
            .with_port_seed(13)
            .with_faults(sim::FaultPlan::crash_stop(1))
            .with_rounds(100),
        make);
  }
  testing::expect_matches_golden(golden, "agent_outcomes.txt");
}

}  // namespace
}  // namespace rsb
