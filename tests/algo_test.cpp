// Tests for the executable protocols: knowledge-level leader election
// (blackboard unique-string and model-agnostic wait-for-singleton),
// m-leader election, color-refinement agents vs the knowledge recursion,
// CreateMatching (Algorithm 1 / Lemma 4.8), and the Theorem C.1 reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>

#include "algo/agents.hpp"
#include "algo/protocol.hpp"
#include "algo/reduction.hpp"
#include "core/consistency.hpp"
#include "reference_decide.hpp"
#include "util/error.hpp"

namespace rsb {
namespace {

void expect_exactly_one_leader(const ProtocolOutcome& outcome) {
  ASSERT_TRUE(outcome.terminated);
  int leaders = 0;
  for (std::int64_t v : outcome.outputs) {
    EXPECT_TRUE(v == 0 || v == 1);
    leaders += v == 1 ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

// ------------------------------------------ blackboard leader election

TEST(BlackboardLE, ElectsExactlyOneLeaderWithPrivateSources) {
  const BlackboardUniqueStringLE protocol;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto config = SourceConfiguration::all_private(4);
    const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                      protocol, seed, 200);
    expect_exactly_one_leader(outcome);
  }
}

TEST(BlackboardLE, SolvesWithSingletonSourceAmongPairs) {
  const BlackboardUniqueStringLE protocol;
  const auto config = SourceConfiguration::from_loads({1, 2, 2});
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                      protocol, seed, 400);
    expect_exactly_one_leader(outcome);
  }
}

TEST(BlackboardLE, NeverTerminatesWithoutSingletonSource) {
  // Theorem 4.1 'only if': loads {2,2} admit no unique string, ever.
  const BlackboardUniqueStringLE protocol;
  const auto config = SourceConfiguration::from_loads({2, 2});
  const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                    protocol, /*seed=*/3, /*max_rounds=*/100);
  EXPECT_FALSE(outcome.terminated);
  for (int r : outcome.decision_round) EXPECT_EQ(r, -1);
}

TEST(BlackboardLE, AllDecideInTheSameRound) {
  const BlackboardUniqueStringLE protocol;
  const auto config = SourceConfiguration::all_private(3);
  const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                    protocol, 11, 200);
  ASSERT_TRUE(outcome.terminated);
  EXPECT_EQ(outcome.decision_round[0], outcome.decision_round[1]);
  EXPECT_EQ(outcome.decision_round[1], outcome.decision_round[2]);
}

using Verdicts = std::vector<std::optional<std::int64_t>>;

/// Asks `protocol`'s rule about `knowledge`, a complete party vector of
/// one round, the way run_prepared does before the round: one verdict
/// per party, every one nullopt when the rule decides nobody.
Verdicts pre_round(const AnonymousProtocol& protocol,
                   const KnowledgeStore& store,
                   const std::vector<KnowledgeId>& knowledge) {
  std::vector<KnowledgeId> sorted_prev = knowledge;
  std::sort(sorted_prev.begin(), sorted_prev.end());
  std::vector<std::int64_t> at;
  Verdicts verdicts(knowledge.size());
  if (protocol.decide_multiset(store, sorted_prev, at)) {
    for (std::size_t p = 0; p < knowledge.size(); ++p) {
      const auto own = std::lower_bound(sorted_prev.begin(), sorted_prev.end(),
                                        knowledge[p]);
      verdicts[p] = at[static_cast<std::size_t>(own - sorted_prev.begin())];
    }
  }
  return verdicts;
}

Verdicts pre_round(const KnowledgeStore& store,
                   const std::vector<KnowledgeId>& knowledge) {
  return pre_round(BlackboardUniqueStringLE(), store, knowledge);
}

/// The reference body's verdict for every party after a round.
Verdicts decide_each(const KnowledgeStore& store,
                     const std::vector<KnowledgeId>& knowledge) {
  Verdicts verdicts;
  for (KnowledgeId k : knowledge) {
    verdicts.push_back(testing::unique_string_decide(store, k));
  }
  return verdicts;
}

struct HookRun {
  std::vector<bool> decided;  // whether the rule decided before each round
  Verdicts last;              // the reference after the last round
};

/// Drives a blackboard run from ⊥ through `bits` (one row per round).
/// Before every round the rule must agree party for party with the
/// reference on the values the round produces.
HookRun expect_hook_matches_decide(
    const std::vector<std::vector<bool>>& bits) {
  const int n = static_cast<int>(bits.front().size());
  KnowledgeStore store;
  std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
  HookRun run;
  for (std::size_t r = 0; r < bits.size(); ++r) {
    const Verdicts hook = pre_round(store, knowledge);
    run.decided.push_back(hook.front().has_value());
    knowledge = blackboard_round(store, knowledge, bits[r]);
    run.last = decide_each(store, knowledge);
    EXPECT_EQ(hook, run.last) << "round " << r + 1;
  }
  return run;
}

TEST(BlackboardLE, PreRoundHookMatchesDecideInRoundOne) {
  // Every value is ⊥, so every string is empty: unique only when n = 1.
  const HookRun solo = expect_hook_matches_decide({{true}});
  EXPECT_EQ(solo.decided, std::vector<bool>{true});
  EXPECT_EQ(solo.last, (Verdicts{1}));
  const HookRun trio = expect_hook_matches_decide({{false, true, true}});
  EXPECT_EQ(trio.decided, std::vector<bool>{false});
  // The rule cannot tell the models apart at ⊥, and need not: a
  // message-passing round 1 gives decide the same all-⊥ multiset.
  for (const int n : {1, 3}) {
    KnowledgeStore store;
    std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
    const Verdicts hook = pre_round(store, knowledge);
    knowledge = message_round(store, knowledge, std::vector<bool>(n, true),
                              PortAssignment::cyclic(n));
    const Verdicts post = decide_each(store, knowledge);
    EXPECT_EQ(hook, post) << "n " << n;
    EXPECT_EQ(post, n == 1 ? Verdicts{1} : Verdicts(n)) << "n " << n;
  }
}

TEST(BlackboardLE, PreRoundHookCrownsTheSmallestUniqueString) {
  // Strings after three rounds, parties 0..7:
  //   110 011 100 000 000 111 010 101
  // Rounds 1 and 2 leave every string paired (no verdict); then six
  // strings are unique. Ids follow party order, so the smallest singleton
  // id is party 0's "110", while the smallest string is party 6's "010".
  // Party 1's "011" against party 0's "110" differs last in the opposite
  // direction from first, so the chain walk must keep the earliest
  // difference.
  const std::vector<std::vector<bool>> bits = {
      {1, 0, 1, 0, 0, 1, 0, 1},
      {1, 1, 0, 0, 0, 1, 1, 0},
      {0, 1, 0, 0, 0, 1, 0, 1},
      {0, 0, 0, 0, 0, 0, 0, 0},
  };
  const HookRun run = expect_hook_matches_decide(bits);
  EXPECT_EQ(run.decided, (std::vector<bool>{false, false, false, true}));
  EXPECT_EQ(run.last, (Verdicts{0, 0, 0, 0, 0, 0, 1, 0}));
}

TEST(BlackboardLE, PreRoundHookGroupsByStringWhereValuesAndStringsDiverge) {
  {
    // Message steps: the wiring splits one string over several values.
    // After rounds {1,0,0} and {0,0,0} on the cyclic wiring, parties 1 and
    // 2 hold distinct values of one string "00", so every value is a
    // singleton, yet the only unique string is party 0's "10".
    KnowledgeStore store;
    std::vector<KnowledgeId> knowledge = initial_knowledge(store, 3);
    const PortAssignment cyclic = PortAssignment::cyclic(3);
    knowledge = message_round(store, knowledge, {true, false, false}, cyclic);
    knowledge = message_round(store, knowledge, {false, false, false}, cyclic);
    ASSERT_NE(knowledge[1], knowledge[2]);
    const Verdicts hook = pre_round(store, knowledge);
    knowledge = message_round(store, knowledge, {true, true, true}, cyclic);
    EXPECT_EQ(hook, decide_each(store, knowledge));
    EXPECT_EQ(hook, (Verdicts{1, 0, 0}));
  }
  {
    // Distinct inputs make two singleton values of one string "0", which
    // is not unique: the reference waits, so the rule must not crown
    // anyone.
    KnowledgeStore store;
    std::vector<KnowledgeId> knowledge =
        initial_knowledge_with_inputs(store, {5, 7});
    EXPECT_EQ(pre_round(store, knowledge), Verdicts(2));
    knowledge = blackboard_round(store, knowledge, {false, false});
    EXPECT_EQ(pre_round(store, knowledge), Verdicts(2));
    knowledge = blackboard_round(store, knowledge, {true, true});
    EXPECT_EQ(decide_each(store, knowledge), Verdicts(2));
  }
}

// --------------------------------------------- wait-for-singleton (both)

TEST(WaitForSingletonLE, BlackboardAgreesWithUniqueString) {
  const WaitForSingletonLE protocol;
  const auto config = SourceConfiguration::from_loads({1, 3});
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                      protocol, seed, 400);
    expect_exactly_one_leader(outcome);
  }
}

TEST(WaitForSingletonLE, MessagePassingGcd1UnderCyclicPorts) {
  const WaitForSingletonLE protocol;
  const auto config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = PortAssignment::cyclic(5);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto outcome =
        run_protocol(Model::kMessagePassing, config, pa, protocol, seed, 400);
    expect_exactly_one_leader(outcome);
  }
}

TEST(WaitForSingletonLE, MessagePassingGcd1UnderRandomPorts) {
  const WaitForSingletonLE protocol;
  const auto config = SourceConfiguration::from_loads({2, 3});
  Xoshiro256StarStar rng(77);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const PortAssignment pa = PortAssignment::random(5, rng);
    const auto outcome =
        run_protocol(Model::kMessagePassing, config, pa, protocol, seed, 400);
    expect_exactly_one_leader(outcome);
  }
}

TEST(WaitForSingletonLE, AdversarialPortsGcd2NeverElect) {
  // Lemma 4.3 in action: loads {2,4}, adversarial ports, tagged model —
  // every class stays a multiple of 2 forever.
  const WaitForSingletonLE protocol;
  const auto config = SourceConfiguration::from_loads({2, 4});
  const PortAssignment pa = PortAssignment::adversarial_for(config);
  const auto outcome = run_protocol(Model::kMessagePassing, config, pa,
                                    protocol, /*seed=*/5, /*max_rounds=*/60);
  EXPECT_FALSE(outcome.terminated);
}

TEST(WaitForSingletonLE, SoloPartyElectsItself) {
  const WaitForSingletonLE protocol;
  const auto config = SourceConfiguration::all_private(1);
  const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                    protocol, 1, 10);
  ASSERT_TRUE(outcome.terminated);
  EXPECT_EQ(outcome.outputs, (std::vector<std::int64_t>{1}));
}

// ----------------------------------------------------- m-leader election

TEST(MLeaderElection, TwoLeadersFromPairedSources) {
  // loads {2,4}: 2-LE solvable on the blackboard (class of size 2).
  const WaitForClassSplitMLE protocol(2);
  const auto config = SourceConfiguration::from_loads({2, 4});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                      protocol, seed, 400);
    ASSERT_TRUE(outcome.terminated) << "seed " << seed;
    int leaders = 0;
    for (std::int64_t v : outcome.outputs) leaders += v == 1 ? 1 : 0;
    EXPECT_EQ(leaders, 2);
  }
}

TEST(MLeaderElection, InfeasibleTargetNeverTerminates) {
  // loads {1,4}: no subset of classes ever sums to 2 on the blackboard
  // (classes can only be 1, 4, or 5 = 1+4 — the 4-class never splits).
  const WaitForClassSplitMLE protocol(2);
  const auto config = SourceConfiguration::from_loads({1, 4});
  const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                    protocol, 9, 80);
  EXPECT_FALSE(outcome.terminated);
}

/// Whether each class of a multiset with class sizes `sizes` (classes in
/// id order) is crowned by wait-for-class-split-LE(m), through the rule
/// itself and through the reference's depth-first search; nullopt where
/// nobody decides.
struct ClassVerdicts {
  std::optional<std::vector<std::int64_t>> rule;
  std::optional<std::vector<std::int64_t>> reference;
};

ClassVerdicts class_split_verdicts(const std::vector<int>& sizes, int m) {
  KnowledgeStore store;
  std::vector<KnowledgeId> values;
  std::vector<KnowledgeId> multiset;
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    values.push_back(store.input(static_cast<std::int64_t>(c)));
    multiset.insert(multiset.end(), static_cast<std::size_t>(sizes[c]),
                    values.back());
  }
  // One blackboard step per class on the board `multiset`: the knowledge
  // a member of that class holds after the round.
  const BoardId board = store.intern_board(multiset);
  const WaitForClassSplitMLE protocol(m);
  ClassVerdicts out;
  std::vector<std::int64_t> rule;
  std::vector<std::int64_t> reference;
  for (const KnowledgeId value : values) {
    const KnowledgeId step = store.blackboard_step_on(value, false, board);
    const auto mine = protocol.decide(store, step);
    const auto theirs = testing::class_split_decide(m, store, step);
    if (mine.has_value()) rule.push_back(*mine);
    if (theirs.has_value()) reference.push_back(*theirs);
  }
  if (!rule.empty()) out.rule = rule;
  if (!reference.empty()) out.reference = reference;
  return out;
}

TEST(MLeaderElection, SubsetTablePicksTheDepthFirstSubset) {
  // Class lists where several sub-collections reach m: the rule must crown
  // the one the include-first depth-first search finds first, including
  // where that search backtracks out of a first pick.
  using Crowned = std::optional<std::vector<std::int64_t>>;
  const struct {
    std::vector<int> sizes;
    int m;
    Crowned crowned;
  } cases[] = {
      {{1, 2, 3, 1, 2}, 3, std::vector<std::int64_t>{1, 1, 0, 0, 0}},
      {{2, 1, 1, 2}, 3, std::vector<std::int64_t>{1, 1, 0, 0}},
      {{2, 3, 1}, 3, std::vector<std::int64_t>{1, 0, 1}},
      {{2, 2, 3}, 3, std::vector<std::int64_t>{0, 0, 1}},
      {{4, 2, 3}, 5, std::vector<std::int64_t>{0, 1, 1}},
      {{3, 1, 2, 1, 1}, 4, std::vector<std::int64_t>{1, 1, 0, 0, 0}},
      {{1, 2}, 0, std::vector<std::int64_t>{0, 0}},
      {{2, 2, 2}, 3, std::nullopt},
      {{1, 1}, 3, std::nullopt},
  };
  for (const auto& c : cases) {
    const ClassVerdicts verdicts = class_split_verdicts(c.sizes, c.m);
    EXPECT_EQ(verdicts.reference, c.crowned) << "m " << c.m;
    EXPECT_EQ(verdicts.rule, c.crowned) << "m " << c.m;
  }
  // And on random class lists, against the search itself.
  Xoshiro256StarStar rng(2105);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<int> sizes(1 + rng.below(8));
    for (int& size : sizes) size = 1 + static_cast<int>(rng.below(4));
    const int m = static_cast<int>(rng.below(12));
    const ClassVerdicts verdicts = class_split_verdicts(sizes, m);
    EXPECT_EQ(verdicts.rule, verdicts.reference) << "trial " << trial;
  }
}

// ------------------------------------------------------ refinement agents

std::vector<int> agent_labels(const sim::Network& net, int n) {
  std::vector<int> labels;
  for (int party = 0; party < n; ++party) {
    labels.push_back(
        dynamic_cast<const sim::RefinementAgent&>(net.agent(party)).label());
  }
  return labels;
}

TEST(RefinementAgent, BlackboardLabelsMatchKnowledgePartition) {
  const auto config = SourceConfiguration::from_loads({2, 1, 2});
  const int n = 5;
  std::vector<sim::RefinementAgent*> agents(static_cast<std::size_t>(n));
  sim::Network net(Model::kBlackboard, config, 21, std::nullopt,
                   [&agents](int party) {
                     auto a = std::make_unique<sim::RefinementAgent>();
                     agents[static_cast<std::size_t>(party)] = a.get();
                     return a;
                   });
  KnowledgeStore store;
  for (int step = 1; step <= 8; ++step) {
    net.step();  // round A: label exchange
    net.step();  // round B: rank agreement
    // Rebuild the realization from the bits the agents actually consumed.
    std::vector<BitString> strings;
    for (int party = 0; party < n; ++party) {
      BitString s;
      for (bool b : agents[static_cast<std::size_t>(party)]->bit_history()) {
        s.push_back(b);
      }
      strings.push_back(std::move(s));
    }
    const Realization rho(strings);
    const auto expected =
        knowledge_partition(knowledge_at_blackboard(store, rho));
    EXPECT_EQ(canonical_blocks(agent_labels(net, n)), expected)
        << "step " << step;
  }
}

TEST(RefinementAgent, MessagePassingLabelsMatchTaggedKnowledge) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const int n = 5;
  const PortAssignment pa = PortAssignment::cyclic(n);
  std::vector<sim::RefinementAgent*> agents(static_cast<std::size_t>(n));
  sim::Network net(Model::kMessagePassing, config, 22, pa,
                   [&agents](int party) {
                     auto a = std::make_unique<sim::RefinementAgent>();
                     agents[static_cast<std::size_t>(party)] = a.get();
                     return a;
                   });
  KnowledgeStore store;
  for (int step = 1; step <= 6; ++step) {
    net.step();  // signature round
    net.step();  // rank round
    std::vector<BitString> strings;
    for (int party = 0; party < n; ++party) {
      BitString s;
      for (bool b : agents[static_cast<std::size_t>(party)]->bit_history()) {
        s.push_back(b);
      }
      strings.push_back(std::move(s));
    }
    const Realization rho(strings);
    const auto expected = knowledge_partition(knowledge_at_message_passing(
        store, rho, pa, MessageVariant::kPortTagged));
    EXPECT_EQ(canonical_blocks(agent_labels(net, n)), expected)
        << "step " << step;
  }
}

TEST(RefinementLeaderElection, MessageLevelElection) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = PortAssignment::cyclic(5);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Network net(Model::kMessagePassing, config, seed, pa, [](int) {
      return std::make_unique<sim::RefinementLeaderElectionAgent>();
    });
    const auto outcome = net.run(400);
    ASSERT_TRUE(outcome.all_decided) << "seed " << seed;
    int leaders = 0;
    for (std::int64_t v : outcome.outputs) leaders += v == 1 ? 1 : 0;
    EXPECT_EQ(leaders, 1) << "seed " << seed;
  }
}

TEST(RefinementMLeaderElection, BlackboardTwoLeaders) {
  const auto config = SourceConfiguration::from_loads({2, 4});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Network net(Model::kBlackboard, config, seed, std::nullopt, [](int) {
      return std::make_unique<sim::RefinementMLeaderElectionAgent>(2);
    });
    const auto outcome = net.run(400);
    ASSERT_TRUE(outcome.all_decided);
    int leaders = 0;
    for (std::int64_t v : outcome.outputs) leaders += v == 1 ? 1 : 0;
    EXPECT_EQ(leaders, 2);
  }
}

TEST(RefinementMLeaderElection, LeadersAreTheDepthFirstSubset) {
  // Where a split exists, the agents crown the sub-collection of classes,
  // in signature order, that the reference's include-first search finds.
  const struct {
    Model model;
    std::vector<int> loads;
    int m;
  } shapes[] = {
      {Model::kBlackboard, {2, 3, 1}, 3},
      {Model::kBlackboard, {1, 2, 4}, 3},
      {Model::kBlackboard, {3, 1, 2, 1}, 4},
      {Model::kMessagePassing, {2, 3}, 2},
      {Model::kMessagePassing, {1, 2, 4}, 5},
  };
  for (const auto& shape : shapes) {
    const auto config = SourceConfiguration::from_loads(shape.loads);
    const int n = config.num_parties();
    std::optional<PortAssignment> ports;
    if (shape.model == Model::kMessagePassing) {
      ports = PortAssignment::cyclic(n);
    }
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const int m = shape.m;
      sim::Network net(shape.model, config, seed, ports, [m](int) {
        return std::make_unique<sim::RefinementMLeaderElectionAgent>(m);
      });
      // Every party decides in the same step, on the classes it then holds.
      for (int round = 0; round < 400 && !net.step(); ++round) {
      }
      const auto& first =
          dynamic_cast<const sim::RefinementAgent&>(net.agent(0));
      ASSERT_TRUE(first.decided()) << "m " << m << " seed " << seed;
      std::vector<std::pair<KnowledgeId, int>> classes;
      for (std::size_t c = 0; c < first.class_sizes().size(); ++c) {
        classes.emplace_back(static_cast<KnowledgeId>(c),
                             first.class_sizes()[c]);
      }
      const auto chosen =
          testing::reference_detail::canonical_subset_with_sum(classes, m);
      ASSERT_TRUE(chosen.has_value()) << "m " << m << " seed " << seed;
      int leaders = 0;
      for (int party = 0; party < n; ++party) {
        const auto& agent =
            dynamic_cast<const sim::RefinementAgent&>(net.agent(party));
        EXPECT_EQ(agent.class_sizes(), first.class_sizes());
        const bool crowned =
            std::find(chosen->begin(), chosen->end(),
                      static_cast<KnowledgeId>(agent.label())) !=
            chosen->end();
        EXPECT_EQ(agent.output(), crowned ? 1 : 0)
            << "m " << m << " seed " << seed << " party " << party;
        leaders += agent.output() == 1 ? 1 : 0;
      }
      EXPECT_EQ(leaders, m) << "seed " << seed;
    }
  }
}

TEST(RefinementMLeaderElection, RejectsNegativeMByName) {
  // As wait-for-class-split-LE's constructor does; a negative m used to
  // build an agent that never decides.
  try {
    const sim::RefinementMLeaderElectionAgent agent(-1);
    ADD_FAILURE() << "m = -1 was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("RefinementMLeaderElectionAgent"),
              std::string::npos)
        << e.what();
  }
}

TEST(RefinementMLeaderElection, UnreachableSplitOverManyClassesStaysFast) {
  // 24 sources of load 2: every class size is even, so no sub-collection
  // totals m = 25, while the refinement splits the parties into up to 24
  // classes. An include-first depth-first search backtracks through every
  // sub-collection of at most 12 of them, per party and step; the class-
  // split selection reads its answer off a table of reachable sums.
  const auto config = SourceConfiguration::from_loads(std::vector<int>(24, 2));
  const auto start = std::chrono::steady_clock::now();
  sim::Network net(Model::kBlackboard, config, 1, std::nullopt, [](int) {
    return std::make_unique<sim::RefinementMLeaderElectionAgent>(25);
  });
  const auto outcome = net.run(40);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_FALSE(outcome.all_decided);
  EXPECT_EQ(dynamic_cast<const sim::RefinementAgent&>(net.agent(0)).steps(),
            20);
  EXPECT_LT(seconds, 2.0) << "40 rounds of an unreachable 25-leader split";
}

// --------------------------------------------------- CreateMatching (E9)

sim::Network::Outcome run_matching(int n1, int n2, int bystanders,
                                   std::uint64_t seed) {
  const int n = n1 + n2 + bystanders;
  // Every participant needs its own randomness for the random picks.
  const auto config = SourceConfiguration::all_private(n);
  const PortAssignment pa = PortAssignment::cyclic(n);
  sim::Network net(Model::kMessagePassing, config, seed, pa,
                   [n1, n2](int party) {
                     sim::MatchingRole role = sim::MatchingRole::kBystander;
                     if (party < n1) {
                       role = sim::MatchingRole::kV1;
                     } else if (party < n1 + n2) {
                       role = sim::MatchingRole::kV2;
                     }
                     return std::make_unique<sim::CreateMatchingAgent>(role);
                   });
  return net.run(4000);
}

TEST(CreateMatching, Lemma48PerfectMatchingOfSmallerSide) {
  for (const auto& [n1, n2] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 3}, {2, 3}, {3, 4}, {2, 5}, {4, 4}}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto outcome = run_matching(n1, n2, /*bystanders=*/1, seed);
      ASSERT_TRUE(outcome.all_decided)
          << "n1=" << n1 << " n2=" << n2 << " seed=" << seed;
      int matched_v1 = 0, matched_v2 = 0, unmatched_v2 = 0;
      for (int party = 0; party < n1 + n2 + 1; ++party) {
        const auto v = outcome.outputs[static_cast<std::size_t>(party)];
        if (party < n1) {
          EXPECT_EQ(v, sim::CreateMatchingAgent::kMatched)
              << "every V1 member must be matched";
          ++matched_v1;
        } else if (party < n1 + n2) {
          (v == sim::CreateMatchingAgent::kMatched ? matched_v2
                                                   : unmatched_v2)++;
        } else {
          EXPECT_EQ(v, sim::CreateMatchingAgent::kBystander);
        }
      }
      EXPECT_EQ(matched_v1, n1);
      EXPECT_EQ(matched_v2, n1) << "matching pairs V1 with V2 one-to-one";
      EXPECT_EQ(unmatched_v2, n2 - n1);
    }
  }
}

TEST(CreateMatching, RejectsLargerV1) {
  EXPECT_THROW(run_matching(3, 2, 0, 1), ValidationError);
}

TEST(CreateMatching, EmptyV1TerminatesImmediately) {
  const auto outcome = run_matching(0, 3, 1, 2);
  EXPECT_TRUE(outcome.all_decided);
  for (int party = 0; party < 3; ++party) {
    EXPECT_EQ(outcome.outputs[static_cast<std::size_t>(party)],
              sim::CreateMatchingAgent::kUnmatched);
  }
}

// ------------------------------------------------ Theorem C.1 reduction

TEST(Reduction, ConsensusViaLeaderOnBlackboard) {
  const auto config = SourceConfiguration::from_loads({1, 2});
  const auto task = NameIndependentTask::consensus_min();
  const std::vector<std::int64_t> inputs = {4, 9, 9};
  const auto outcome =
      solve_name_independent_task(Model::kBlackboard, config, std::nullopt,
                                  task, inputs, /*seed=*/7, /*max_rounds=*/200);
  ASSERT_TRUE(outcome.solved);
  EXPECT_TRUE(task.validate(inputs, outcome.outputs));
  EXPECT_GE(outcome.leader, 0);
}

TEST(Reduction, RankViaLeaderOnMessagePassing) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment pa = PortAssignment::cyclic(5);
  const auto task = NameIndependentTask::rank();
  const std::vector<std::int64_t> inputs = {10, 10, 20, 20, 5};
  const auto outcome = solve_name_independent_task(
      Model::kMessagePassing, config, pa, task, inputs, 8, 400);
  ASSERT_TRUE(outcome.solved);
  EXPECT_TRUE(task.validate(inputs, outcome.outputs));
}

TEST(Reduction, FailsWhereLeaderElectionFails) {
  // Identical inputs + shared randomness: symmetry cannot break, so the
  // reduction (correctly) cannot elect and reports failure.
  const auto config = SourceConfiguration::all_shared(3);
  const auto task = NameIndependentTask::parity();
  const std::vector<std::int64_t> inputs = {1, 1, 1};
  const auto outcome =
      solve_name_independent_task(Model::kBlackboard, config, std::nullopt,
                                  task, inputs, 9, 60);
  EXPECT_FALSE(outcome.solved);
}

TEST(Reduction, InputAsymmetryCanBreakSymmetryAlone) {
  // Shared randomness but distinct inputs: the inputs themselves isolate a
  // vertex, so the reduction succeeds even where pure LE would fail.
  const auto config = SourceConfiguration::all_shared(3);
  const auto task = NameIndependentTask::consensus_max();
  const std::vector<std::int64_t> inputs = {1, 2, 2};
  const auto outcome =
      solve_name_independent_task(Model::kBlackboard, config, std::nullopt,
                                  task, inputs, 10, 60);
  ASSERT_TRUE(outcome.solved);
  EXPECT_EQ(outcome.outputs, (std::vector<std::int64_t>{2, 2, 2}));
}

TEST(Reduction, ValidatesArguments) {
  const auto config = SourceConfiguration::all_private(2);
  const auto task = NameIndependentTask::parity();
  EXPECT_THROW(solve_name_independent_task(Model::kBlackboard, config,
                                           std::nullopt, task, {1}, 1, 10),
               InvalidArgument);
  EXPECT_THROW(solve_name_independent_task(Model::kMessagePassing, config,
                                           std::nullopt, task, {1, 2}, 1, 10),
               InvalidArgument);
}

// -------------------------------------------------------- runner contract

TEST(Runner, ValidatesPortsPresence) {
  const WaitForSingletonLE protocol;
  const auto config = SourceConfiguration::all_private(2);
  EXPECT_THROW(run_protocol(Model::kMessagePassing, config, std::nullopt,
                            protocol, 1, 10),
               InvalidArgument);
  EXPECT_THROW(run_protocol(Model::kBlackboard, config,
                            PortAssignment::cyclic(2), protocol, 1, 10),
               InvalidArgument);
}

}  // namespace
}  // namespace rsb
