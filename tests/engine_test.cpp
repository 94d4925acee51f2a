// Tests for the experiment engine: declarative specs, batched seed sweeps
// with allocation reuse, the protocol/task registries, and the
// compatibility contract that Engine results are bit-identical to an
// independent one-shot reference (tests/reference_run.hpp) and to the
// run_protocol(...) wrapper.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "algo/agents.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "reference_run.hpp"
#include "util/error.hpp"

namespace rsb {
namespace {

using testing::reference_run;

bool outcomes_identical(const ProtocolOutcome& a, const ProtocolOutcome& b) {
  return a.terminated == b.terminated && a.rounds == b.rounds &&
         a.outputs == b.outputs && a.decision_round == b.decision_round;
}

// -------------------------------------------------- legacy round-trip

TEST(EngineRoundTrip, BitIdenticalToReferenceOnBlackboard) {
  const auto config = SourceConfiguration::from_loads({2, 1, 1});
  Engine engine;  // one engine across all seeds: exercises store reuse
  auto spec = Experiment::blackboard(config)
                  .with_protocol("blackboard-unique-string-LE")
                  .with_rounds(200);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto expected = reference_run(spec, seed, nullptr);
    const auto actual = engine.run(spec, seed);
    EXPECT_TRUE(outcomes_identical(expected, actual)) << "seed " << seed;
  }
}

TEST(EngineRoundTrip, BitIdenticalToReferenceOnMessagePassing) {
  const auto config = SourceConfiguration::from_loads({2, 3});
  const PortAssignment ports = PortAssignment::cyclic(5);
  Engine engine;
  auto spec = Experiment::message_passing(config)
                  .with_ports(ports)
                  .with_protocol("wait-for-singleton-LE")
                  .with_rounds(200);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto expected = reference_run(spec, seed, &ports);
    const auto actual = engine.run(spec, seed);
    EXPECT_TRUE(outcomes_identical(expected, actual)) << "seed " << seed;
  }
}

TEST(EngineRoundTrip, RunProtocolWrapperDelegatesUnchanged) {
  const auto config = SourceConfiguration::all_private(4);
  const WaitForSingletonLE protocol;
  Engine engine;
  auto spec = Experiment::blackboard(config)
                  .with_protocol("wait-for-singleton-LE")
                  .with_rounds(150);
  for (std::uint64_t seed = 5; seed <= 15; ++seed) {
    const auto via_wrapper = run_protocol(Model::kBlackboard, config,
                                          std::nullopt, protocol, seed, 150);
    const auto via_engine = engine.run(spec, seed);
    EXPECT_TRUE(outcomes_identical(via_wrapper, via_engine)) << "seed " << seed;
  }
}

TEST(EngineRoundTrip, ReusedEngineMatchesFreshEngines) {
  const auto config = SourceConfiguration::from_loads({1, 3});
  auto spec = Experiment::message_passing(config)
                  .with_port_policy(PortPolicy::kRandomPerRun)
                  .with_port_seed(404)
                  .with_protocol("wait-for-singleton-LE")
                  .with_task("leader-election")
                  .with_rounds(300)
                  .with_seeds(1, 40);
  Engine reused;
  const RunStats warm = reused.run_batch(spec);
  const RunStats again = reused.run_batch(spec);
  Engine fresh;
  const RunStats cold = fresh.run_batch(spec);
  EXPECT_EQ(warm.runs, cold.runs);
  EXPECT_EQ(warm.terminated, cold.terminated);
  EXPECT_EQ(warm.task_successes, cold.task_successes);
  EXPECT_EQ(warm.round_histogram, cold.round_histogram);
  EXPECT_EQ(warm.output_counts, cold.output_counts);
  EXPECT_EQ(again.round_histogram, cold.round_histogram);
  EXPECT_GE(reused.store_high_water(), fresh.store_high_water());
}

// ------------------------------------------------------------ batches

TEST(EngineBatch, HundredSeedSingletonLEOnFourPartiesAlwaysTerminates) {
  // The ISSUE acceptance criterion: >= 100 seeds, WaitForSingletonLE,
  // n = 4, termination rate 1.0 through Engine::run_batch.
  Engine engine;
  auto spec = Experiment::blackboard(SourceConfiguration::all_private(4))
                  .with_protocol("wait-for-singleton-LE")
                  .with_task("leader-election")
                  .with_rounds(300)
                  .with_seeds(1, 128);
  const RunStats stats = engine.run_batch(spec);
  EXPECT_EQ(stats.runs, 128u);
  EXPECT_DOUBLE_EQ(stats.termination_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.success_rate(), 1.0);
  // Exactly one leader per run: 128 ones and 3*128 zeros across parties.
  EXPECT_EQ(stats.output_counts.at(1), 128u);
  EXPECT_EQ(stats.output_counts.at(0), 3u * 128u);
  // Histogram accounts for every terminated run.
  std::uint64_t histogram_total = 0;
  for (const auto& [rounds, count] : stats.round_histogram) {
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, stats.terminated);
  EXPECT_GT(stats.mean_rounds(), 0.0);
}

TEST(EngineBatch, AdversarialPortsFreezeEvenGcd) {
  // Lemma 4.3: with gcd{2,4} = 2 the adversarial wiring keeps every
  // consistency class even — no singleton, no termination, ever.
  Engine engine;
  auto spec = Experiment::message_passing(
                  SourceConfiguration::from_loads({2, 4}),
                  PortPolicy::kAdversarial)
                  .with_protocol("wait-for-singleton-LE")
                  .with_rounds(40)
                  .with_seeds(1, 20);
  const RunStats stats = engine.run_batch(spec);
  EXPECT_EQ(stats.terminated, 0u);
  EXPECT_DOUBLE_EQ(stats.termination_rate(), 0.0);
  EXPECT_TRUE(stats.output_counts.empty());
}

TEST(EngineBatch, CollectorSeesEveryRunInOrder) {
  Engine engine;
  auto spec = Experiment::message_passing(
                  SourceConfiguration::from_loads({2, 3}))
                  .with_port_seed(7)
                  .with_protocol("wait-for-singleton-LE")
                  .with_rounds(300)
                  .with_seeds(10, 12);
  std::vector<std::uint64_t> seeds_seen;
  const RunStats stats = testing::replay_runs(
      engine, spec, [&](const RunView& view, const ProtocolOutcome& outcome) {
        EXPECT_EQ(view.run_index, seeds_seen.size());
        ASSERT_NE(view.ports, nullptr);
        EXPECT_TRUE(outcome.terminated);
        seeds_seen.push_back(view.seed);
      });
  ASSERT_EQ(seeds_seen.size(), 12u);
  EXPECT_EQ(seeds_seen.front(), 10u);
  EXPECT_EQ(seeds_seen.back(), 21u);
  EXPECT_EQ(stats.runs, 12u);
}

TEST(EngineBatch, SweepRunsEachSpec) {
  Engine engine;
  std::vector<Experiment> specs;
  for (int n = 3; n <= 5; ++n) {
    specs.push_back(Experiment::blackboard(
                        SourceConfiguration::all_private(n))
                        .with_protocol("wait-for-singleton-LE")
                        .with_rounds(300)
                        .with_seeds(1, 10));
  }
  RunStats pooled;
  for (const Experiment& spec : specs) {
    const RunStats stats = engine.run_batch(spec);
    EXPECT_EQ(stats.runs, 10u);
    EXPECT_DOUBLE_EQ(stats.termination_rate(), 1.0);
    pooled.merge(stats);
  }
  EXPECT_EQ(pooled.runs, 30u);
  EXPECT_EQ(pooled.terminated, 30u);
}

TEST(EngineBatch, ClassSplitElectsExactlyMLeaders) {
  Engine engine;
  auto spec = Experiment::message_passing(
                  SourceConfiguration::from_loads({2, 4}))
                  .with_port_seed(123)
                  .with_protocol("wait-for-class-split-LE(2)")
                  .with_task("m-leader-election(2)")
                  .with_rounds(400)
                  .with_seeds(1, 10);
  const RunStats stats = engine.run_batch(spec);
  EXPECT_DOUBLE_EQ(stats.termination_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.success_rate(), 1.0);
  EXPECT_EQ(stats.output_counts.at(1), 2u * stats.runs);
}

// ------------------------------------------------------------ batching

TEST(EngineBatch, BatchedGroupsRemainderAndOversizedWidthMatchSerial) {
  // `batch` and `orbit` are ignored fields: a width that does not divide
  // the 10 seeds (8), one wider than the sweep (64), and orbit on all run
  // the brute-force sweep, so the aggregate is the serial reference and
  // the orbit counters stay 0.
  Engine serial;
  auto spec = Experiment::blackboard(SourceConfiguration::all_private(4))
                  .with_protocol("wait-for-singleton-LE")
                  .with_task("leader-election")
                  .with_rounds(300)
                  .with_seeds(1, 10);
  const RunStats reference = serial.run_batch(spec);
  for (const int batch : {8, 64}) {
    Engine engine;
    engine.set_parallel({1, 0, batch, true});
    EXPECT_EQ(engine.run_batch(spec), reference) << "batch " << batch;
    EXPECT_EQ(engine.orbit_hits() + engine.orbit_reps(), 0u)
        << "batch " << batch;
  }
}

TEST(EngineBatch, AgentBackendIgnoresBatchWidth) {
  // The agent backend passes through untouched under any width, with
  // orbit on.
  auto spec = Experiment::message_passing(SourceConfiguration::all_private(4),
                                          PortPolicy::kCyclic)
                  .with_agents([](int) {
                    return std::make_unique<sim::GossipLeaderElectionAgent>();
                  })
                  .with_task("leader-election")
                  .with_rounds(40)
                  .with_seeds(1, 12);
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  Engine batched;
  batched.set_parallel({1, 0, 16, true});
  EXPECT_EQ(batched.run_batch(spec), reference);
  EXPECT_EQ(batched.orbit_hits() + batched.orbit_reps(), 0u);
}

// ---------------------------------------------------------- validation

TEST(EngineSpec, ValidationCatchesInconsistentSpecs) {
  Engine engine;
  Experiment no_protocol = Experiment::blackboard(
      SourceConfiguration::all_private(3));
  EXPECT_THROW(engine.run_batch(no_protocol), InvalidArgument);

  auto ports_on_blackboard = Experiment::blackboard(
                                 SourceConfiguration::all_private(3))
                                 .with_protocol("wait-for-singleton-LE")
                                 .with_ports(PortAssignment::cyclic(3));
  EXPECT_THROW(engine.run_batch(ports_on_blackboard), InvalidArgument);

  auto no_ports = Experiment::message_passing(
                      SourceConfiguration::all_private(3), PortPolicy::kNone)
                      .with_protocol("wait-for-singleton-LE");
  EXPECT_THROW(engine.run_batch(no_ports), InvalidArgument);

  auto task_mismatch = Experiment::blackboard(
                           SourceConfiguration::all_private(3))
                           .with_protocol("wait-for-singleton-LE")
                           .with_task(SymmetricTask::leader_election(4));
  EXPECT_THROW(engine.run_batch(task_mismatch), InvalidArgument);

  auto empty_seeds = Experiment::blackboard(
                         SourceConfiguration::all_private(3))
                         .with_protocol("wait-for-singleton-LE")
                         .with_seeds(1, 0);
  EXPECT_THROW(engine.run_batch(empty_seeds), InvalidArgument);
}

// ---------------------------------------------------------- registries

TEST(Registry, BuiltinProtocolsResolveByName) {
  const auto unique = make_protocol("blackboard-unique-string-LE");
  ASSERT_NE(unique, nullptr);
  EXPECT_EQ(unique->name(), "blackboard-unique-string-LE");
  const auto singleton = make_protocol("wait-for-singleton-LE");
  EXPECT_EQ(singleton->name(), "wait-for-singleton-LE");
  const auto split = make_protocol("wait-for-class-split-LE(3)");
  EXPECT_EQ(split->name(), "wait-for-class-split-3-LE");
}

TEST(Registry, BuiltinTasksResolveByName) {
  const SymmetricTask le = make_task("leader-election", 4);
  EXPECT_EQ(le.num_parties(), 4);
  EXPECT_TRUE(le.admits_vector({0, 1, 0, 0}));
  EXPECT_FALSE(le.admits_vector({1, 1, 0, 0}));
  const SymmetricTask mle = make_task("m-leader-election(2)", 4);
  EXPECT_TRUE(mle.admits_vector({1, 1, 0, 0}));
  const SymmetricTask wsb = make_task("weak-symmetry-breaking", 3);
  EXPECT_TRUE(wsb.admits_vector({0, 1, 1}));
  EXPECT_FALSE(wsb.admits_vector({1, 1, 1}));
}

TEST(Registry, UnknownNamesThrowWithKnownNamesListed) {
  try {
    make_protocol("no-such-protocol");
    FAIL() << "expected UnknownName";
  } catch (const UnknownName& e) {
    EXPECT_NE(std::string(e.what()).find("wait-for-singleton-LE"),
              std::string::npos);
  }
  EXPECT_THROW(make_task("no-such-task", 4), UnknownName);
}

TEST(Registry, ArityAndParseErrors) {
  EXPECT_THROW(make_protocol("wait-for-singleton-LE(3)"), InvalidArgument);
  EXPECT_THROW(make_protocol("wait-for-class-split-LE"), InvalidArgument);
  EXPECT_THROW(make_protocol("wait-for-class-split-LE(x)"), InvalidArgument);
  EXPECT_THROW(make_protocol("wait-for-class-split-LE(2"), InvalidArgument);
  EXPECT_THROW(make_protocol("wait-for-class-split-LE(2,)"), InvalidArgument);
  EXPECT_THROW(make_task("m-leader-election", 4), InvalidArgument);
  // Other spellings of valid specs: each a named reject that quotes the
  // canonical spelling.
  const std::pair<std::string, std::string> respelled[] = {
      {"wait-for-singleton-LE()", "'wait-for-singleton-LE'"},
      {"wait-for-class-split-LE(02)", "'wait-for-class-split-LE(2)'"},
      {"wait-for-class-split-LE(+2)", "'wait-for-class-split-LE(2)'"},
  };
  for (const auto& [spec, canonical] : respelled) {
    try {
      make_protocol(spec);
      ADD_FAILURE() << "accepted: " << spec;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(canonical), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(make_task("m-leader-election(002)", 4), InvalidArgument);
  EXPECT_THROW(make_task("t-resilient-leader-election(-0)", 4),
               InvalidArgument);
  EXPECT_THROW(make_task("t-resilient-m-leader-election(2,+1)", 4),
               InvalidArgument);
}

TEST(Registry, NamesAreSortedAndComplete) {
  const auto protocol_names = ProtocolRegistry::global().names();
  EXPECT_TRUE(std::is_sorted(protocol_names.begin(), protocol_names.end()));
  EXPECT_TRUE(ProtocolRegistry::global().contains("wait-for-singleton-LE"));
  EXPECT_TRUE(ProtocolRegistry::global().contains("wait-for-class-split-LE"));
  EXPECT_TRUE(
      ProtocolRegistry::global().contains("blackboard-unique-string-LE"));
  const auto task_names = TaskRegistry::global().names();
  EXPECT_TRUE(std::is_sorted(task_names.begin(), task_names.end()));
  EXPECT_TRUE(TaskRegistry::global().contains("leader-election"));
  EXPECT_TRUE(TaskRegistry::global().contains("m-leader-election"));
  EXPECT_TRUE(TaskRegistry::global().contains("weak-symmetry-breaking"));
}

TEST(Registry, SpecStringConstruction) {
  // The fully string-driven path: model + config + names -> stats.
  Engine engine;
  auto spec = Experiment::blackboard(SourceConfiguration::from_loads(
                                             {1, 1, 1, 1}))
                  .with_protocol("wait-for-singleton-LE")
                  .with_task("leader-election")
                  .with_seeds(1, 16);
  EXPECT_NE(spec.to_string().find("wait-for-singleton-LE"),
            std::string::npos);
  const RunStats stats = engine.run_batch(spec);
  EXPECT_DOUBLE_EQ(stats.success_rate(), 1.0);
}

}  // namespace
}  // namespace rsb
