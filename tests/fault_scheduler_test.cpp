// Tests for the fault & scheduler layer: FaultPlan draws as pure functions
// of (spec, seed), crash-stop semantics on both engine backends, delivery
// schedulers (synchronous / random delay / adversarial starvation), the
// determinism contract under parallelism (byte-identical results for any
// thread count and any ParallelConfig, with faults and delays active), the
// "crash 0 + synchronous scheduler == pre-fault-layer engine" pin, the
// t-resilient task variants, the fault/scheduler grid axes, and a golden
// fault-sweep ResultTable fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "algo/agents.hpp"
#include "algo/euclid.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/registry.hpp"
#include "engine/report.hpp"
#include "engine/run_context.hpp"
#include "golden_util.hpp"
#include "run_replay.hpp"
#include "util/error.hpp"

namespace rsb {
namespace {

using sim::FaultPlan;
using sim::SchedulerKind;
using sim::SchedulerSpec;

bool outcomes_identical(const ProtocolOutcome& a, const ProtocolOutcome& b) {
  return a.terminated == b.terminated && a.rounds == b.rounds &&
         a.outputs == b.outputs && a.decision_round == b.decision_round &&
         a.crash_round == b.crash_round;
}

/// Knowledge-level blackboard spec, the faulty workhorse of this suite.
Experiment faulty_blackboard_spec(int n, int crashes, std::uint64_t seeds) {
  return Experiment::blackboard(SourceConfiguration::all_private(n))
      .with_protocol("wait-for-singleton-LE")
      .with_task("t-resilient-leader-election(" + std::to_string(crashes) +
                 ")")
      .with_faults(FaultPlan::crash_stop(crashes, 6))
      .with_rounds(300)
      .with_seeds(1, seeds);
}

/// Agent-level gossip spec (message passing). The gossip agent tolerates
/// any delivery schedule but starves under crashes — exactly the contrast
/// the layer exists to measure.
Experiment gossip_spec(int n, std::uint64_t seeds) {
  return Experiment::message_passing(SourceConfiguration::all_private(n),
                                     PortPolicy::kCyclic)
      .with_agents([](int) {
        return std::make_unique<sim::GossipLeaderElectionAgent>();
      })
      .with_task("leader-election")
      .with_rounds(40)
      .with_seeds(1, seeds);
}

// ------------------------------------------------------- fault plan draws

TEST(FaultDraw, ExactlyTCrashesInsideTheWindow) {
  const FaultPlan plan = FaultPlan::crash_stop(3, 5);
  std::vector<int> crash;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    plan.draw(8, seed, crash);
    ASSERT_EQ(crash.size(), 8u) << "seed " << seed;
    int crashed = 0;
    for (int round : crash) {
      if (round < 0) continue;
      ++crashed;
      EXPECT_GE(round, 1);
      EXPECT_LE(round, 5);
    }
    EXPECT_EQ(crashed, 3) << "seed " << seed;
  }
}

TEST(FaultDraw, PureFunctionOfPlanAndSeed) {
  const FaultPlan plan = FaultPlan::crash_stop(2, 4);
  std::vector<int> first, second;
  std::set<std::vector<int>> distinct;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    plan.draw(6, seed, first);
    plan.draw(6, seed, second);  // same scratch history, same seed
    EXPECT_EQ(first, second) << "seed " << seed;
    distinct.insert(first);
  }
  // The adversary is resampled per run: the schedules genuinely vary.
  EXPECT_GT(distinct.size(), 10u);
  // A different fault_seed is a different adversary.
  FaultPlan other = plan;
  other.fault_seed ^= 0x1234567;
  plan.draw(6, 7, first);
  other.draw(6, 7, second);
  EXPECT_NE(first, second);
}

TEST(FaultDraw, ZeroCrashesClearsTheSchedule) {
  std::vector<int> crash = {1, 2, 3};
  FaultPlan::none().draw(5, 99, crash);
  EXPECT_TRUE(crash.empty());
}

TEST(FaultPlanValidation, RejectsMalformedPlans) {
  EXPECT_THROW(FaultPlan::crash_stop(-1).validate(4), InvalidArgument);
  EXPECT_THROW(FaultPlan::crash_stop(4).validate(4), InvalidArgument);
  EXPECT_THROW(FaultPlan::crash_stop(1, 0).validate(4), InvalidArgument);
  FaultPlan::crash_stop(3).validate(4);  // t = n-1 leaves one survivor: ok
  // Spec-level: the plan is validated against the spec's configuration.
  auto spec = faulty_blackboard_spec(4, 1, 4);
  spec.faults.crashes = 4;
  Engine engine;
  EXPECT_THROW(engine.run_batch(spec), InvalidArgument);
  // A crash window beyond the round budget would let a "crashed" party
  // act alive for the whole run; rejected up front.
  auto wide = faulty_blackboard_spec(4, 1, 4).with_rounds(5);  // window 6
  EXPECT_THROW(engine.run_batch(wide), InvalidArgument);
  wide.with_rounds(6);
  engine.run_batch(wide);
}

TEST(SchedulerValidation, RejectsMalformedSpecs) {
  EXPECT_THROW(SchedulerSpec::random_delay(-1).validate(4), InvalidArgument);
  EXPECT_THROW(SchedulerSpec::adversarial_starve({4}, 2).validate(4),
               InvalidArgument);
  EXPECT_THROW(SchedulerSpec::adversarial_starve({-1}, 2).validate(4),
               InvalidArgument);
  SchedulerSpec::adversarial_starve({0, 3}, 2).validate(4);
  // The knowledge backend is lockstep by definition.
  auto spec = faulty_blackboard_spec(4, 0, 4).with_scheduler(
      SchedulerSpec::random_delay(2));
  Engine engine;
  EXPECT_THROW(engine.run_batch(spec), InvalidArgument);
  // ... unless the scheduler cannot reorder anything.
  spec.with_scheduler(SchedulerSpec::adversarial_starve({0}, 0));
  engine.run_batch(spec);
}

// ------------------------------------- the no-fault compatibility pin (b)

TEST(FaultLayerCompat, CrashZeroPlusSynchronousIsByteIdenticalKnowledge) {
  // FaultPlan{t=0} + the synchronous scheduler must reproduce the
  // pre-fault-layer engine bit-for-bit, per outcome and per aggregate.
  auto plain = Experiment::blackboard(SourceConfiguration::from_loads({2, 2, 1}))
                   .with_protocol("wait-for-singleton-LE")
                   .with_task("leader-election")
                   .with_rounds(300)
                   .with_seeds(1, 40);
  auto layered = plain;
  layered.with_faults(FaultPlan::none())
      .with_scheduler(SchedulerSpec::synchronous());
  Engine engine;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto a = engine.run(plain, seed);
    const auto b = engine.run(layered, seed);
    EXPECT_TRUE(outcomes_identical(a, b)) << "seed " << seed;
    EXPECT_TRUE(b.crash_round.empty());
  }
  EXPECT_EQ(engine.run_batch(plain), engine.run_batch(layered));
}

TEST(FaultLayerCompat, CrashZeroPlusSynchronousIsByteIdenticalAgents) {
  auto plain = Experiment::message_passing(SourceConfiguration::from_loads(
                                               {2, 3}))
                   .with_agents([](int) {
                     return std::make_unique<sim::EuclidLeaderElectionAgent>();
                   })
                   .with_task("leader-election")
                   .with_port_seed(77)
                   .with_rounds(3000)
                   .with_seeds(1, 12);
  auto layered = plain;
  layered.with_faults(FaultPlan::crash_stop(0))
      .with_scheduler(SchedulerSpec::synchronous());
  Engine engine;
  const RunStats a = engine.run_batch(plain);
  const RunStats b = engine.run_batch(layered);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.terminated, 0u);
}

// --------------------------------- determinism under parallelism (a)

TEST(FaultParallelism, FaultyKnowledgeRunsByteIdenticalAcrossThreadCounts) {
  const auto spec = faulty_blackboard_spec(5, 2, 48);
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  EXPECT_EQ(reference.crashed_parties, 2u * 48u);
  for (int threads : {2, 8}) {
    Engine parallel;
    parallel.set_parallel({threads, 0});
    EXPECT_EQ(parallel.run_batch(spec), reference) << "threads=" << threads;
  }
  for (std::uint64_t chunk : {1u, 3u, 7u, 100u}) {
    Engine parallel;
    parallel.set_parallel({4, chunk});
    EXPECT_EQ(parallel.run_batch(spec), reference) << "chunk=" << chunk;
  }
}

TEST(FaultParallelism, FaultyDelayedAgentRunsByteIdenticalAcrossThreadCounts) {
  // Every adversary at once: random per-run ports, crash faults, and a
  // random-delay scheduler, all on the agent backend.
  auto spec = Experiment::message_passing(SourceConfiguration::all_private(5))
                  .with_agents([](int) {
                    return std::make_unique<sim::GossipLeaderElectionAgent>();
                  })
                  .with_task("t-resilient-leader-election(1)")
                  .with_port_seed(11)
                  .with_faults(FaultPlan::crash_stop(1, 3))
                  .with_scheduler(SchedulerSpec::random_delay(3))
                  .with_rounds(40)
                  .with_seeds(1, 37);  // odd count: ragged chunks
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  EXPECT_EQ(reference.crashed_parties, 37u);
  for (int threads : {2, 8}) {
    Engine parallel;
    parallel.set_parallel({threads, 0});
    EXPECT_EQ(parallel.run_batch(spec), reference) << "threads=" << threads;
  }
}

TEST(FaultParallelism, CollectorsSeeCrashSchedulesInRunIndexOrder) {
  const auto spec = faulty_blackboard_spec(5, 1, 24);
  auto collect = [&spec](int threads) {
    Engine engine;
    engine.set_parallel({threads, 3});
    std::vector<std::vector<int>> schedules;
    testing::replay_runs(
        engine, spec, [&](const RunView& view, const ProtocolOutcome& outcome) {
          EXPECT_EQ(view.run_index, schedules.size());
          schedules.push_back(outcome.crash_round);
        });
    return schedules;
  };
  const auto reference = collect(1);
  ASSERT_EQ(reference.size(), 24u);
  for (const auto& schedule : reference) {
    EXPECT_EQ(schedule.size(), 5u);
  }
  EXPECT_EQ(collect(4), reference);
}

// ----------------------------------------------- crash-stop semantics

TEST(CrashSemantics, KnowledgeBackendHonorsTheDrawnSchedule) {
  const auto spec = faulty_blackboard_spec(5, 2, 32);
  Engine engine;
  std::vector<int> expected_schedule;
  std::uint64_t manual_successes = 0;
  const SymmetricTask task = *spec.task;
  const RunStats stats = testing::replay_runs(
      engine, spec, [&](const RunView& view, const ProtocolOutcome& outcome) {
        spec.faults.draw(5, view.seed, expected_schedule);
        // The reported schedule is exactly the plan's per-seed draw.
        EXPECT_EQ(outcome.crash_round, expected_schedule);
        std::vector<bool> alive(5);
        std::vector<int> values(5);
        for (int party = 0; party < 5; ++party) {
          const int crash = outcome.crash_round[static_cast<std::size_t>(party)];
          const int decided =
              outcome.decision_round[static_cast<std::size_t>(party)];
          alive[static_cast<std::size_t>(party)] = crash < 0;
          values[static_cast<std::size_t>(party)] = static_cast<int>(
              outcome.outputs[static_cast<std::size_t>(party)]);
          // A party never decides at or after its crash round.
          if (crash >= 0 && decided >= 0) {
            EXPECT_LT(decided, crash);
          }
          // Terminated means precisely: every survivor decided.
          if (outcome.terminated && crash < 0) {
            EXPECT_GE(decided, 0);
          }
        }
        if (outcome.terminated && task.admits_surviving(values, alive)) {
          ++manual_successes;
        }
      });
  // The engine's success accounting is the survivor-based one.
  EXPECT_EQ(stats.task_successes, manual_successes);
  EXPECT_EQ(stats.crashed_parties, 2u * 32u);
  EXPECT_GT(stats.terminated, 0u);
}

TEST(CrashSemantics, GossipStarvesWhenAPeerCrashesBeforeSending) {
  // The gossip agent counts n-1 receipts and never re-sends: a peer that
  // crashes at round 1 (before transmitting) starves everyone forever —
  // while survivors of later crashes still finish. Crash window 1 forces
  // every crash to round 1.
  auto spec = gossip_spec(4, 20).with_faults(FaultPlan::crash_stop(1, 1));
  spec.task.reset();
  Engine engine;
  const RunStats stats = testing::replay_runs(
      engine, spec, [&](const RunView&, const ProtocolOutcome& outcome) {
        EXPECT_FALSE(outcome.terminated);
        for (int party = 0; party < 4; ++party) {
          const int crash = outcome.crash_round[static_cast<std::size_t>(party)];
          // Nobody can complete the gossip: the crashed word never arrives.
          EXPECT_EQ(outcome.decision_round[static_cast<std::size_t>(party)], -1)
              << "party " << party << " crash " << crash;
        }
      });
  EXPECT_EQ(stats.terminated, 0u);
  EXPECT_EQ(stats.crashed_parties, 20u);
}

TEST(CrashSemantics, SurvivorsKeepDecisionsWhenCrashesComeLate) {
  // A crash after every decision must not disturb the run at all: the
  // gossip election completes in round 1, so any crash round >= 2 leaves
  // outputs, rounds and termination identical to the fault-free run (a
  // decided party that later crashes keeps its decision and never blocks).
  const auto plain = gossip_spec(4, 16);
  const auto late = gossip_spec(4, 16).with_faults(FaultPlan::crash_stop(1, 30));
  Engine engine;
  std::vector<ProtocolOutcome> plain_outcomes;
  testing::replay_runs(engine, plain,
                       [&](const RunView&, const ProtocolOutcome& outcome) {
                         EXPECT_TRUE(outcome.terminated);
                         plain_outcomes.push_back(outcome);
                       });
  std::size_t run = 0;
  std::uint64_t late_crashes = 0;
  testing::replay_runs(
      engine, late, [&](const RunView&, const ProtocolOutcome& outcome) {
        ASSERT_LT(run, plain_outcomes.size());
        int crash = -1;
        for (int round : outcome.crash_round) crash = std::max(crash, round);
        ASSERT_GE(crash, 1);  // exactly one victim per run
        if (crash >= 2) {
          ++late_crashes;
          EXPECT_TRUE(outcome.terminated);
          EXPECT_EQ(outcome.rounds, plain_outcomes[run].rounds);
          EXPECT_EQ(outcome.outputs, plain_outcomes[run].outputs);
          EXPECT_EQ(outcome.decision_round, plain_outcomes[run].decision_round);
        } else {
          // Crash at round 1: the victim's word is never sent, the gossip
          // starves, nobody decides.
          EXPECT_FALSE(outcome.terminated);
        }
        ++run;
      });
  EXPECT_EQ(run, 16u);
  EXPECT_GT(late_crashes, 0u);  // window 30: most crashes land late
}

// --------------------------------------------------------- schedulers

TEST(Scheduler, SynchronousGossipDecidesInRoundOne) {
  Engine engine;
  const RunStats stats = engine.run_batch(gossip_spec(4, 32));
  EXPECT_DOUBLE_EQ(stats.termination_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.success_rate(), 1.0);  // all-private: words distinct
  ASSERT_EQ(stats.round_histogram.size(), 1u);
  EXPECT_EQ(stats.round_histogram.at(1), 32u);
}

TEST(Scheduler, RandomDelayPreservesOutputsAndBoundsRounds) {
  // The gossip decision is a function of the word multiset alone, so any
  // delivery schedule yields the same outputs — only the timing moves,
  // and by at most max_delay rounds.
  const int kDelay = 3;
  Engine engine;
  const RunStats sync = engine.run_batch(gossip_spec(4, 32));
  const RunStats delayed = engine.run_batch(
      gossip_spec(4, 32).with_scheduler(SchedulerSpec::random_delay(kDelay)));
  EXPECT_EQ(delayed.output_counts, sync.output_counts);
  EXPECT_EQ(delayed.terminated, sync.terminated);
  EXPECT_DOUBLE_EQ(delayed.success_rate(), 1.0);
  for (const auto& [rounds, count] : delayed.round_histogram) {
    (void)count;
    EXPECT_GE(rounds, 1);
    EXPECT_LE(rounds, 1 + kDelay);
  }
  // With 12 messages per run and delay spread {0..3}, some run somewhere
  // is actually delayed.
  EXPECT_GT(delayed.mean_rounds(), sync.mean_rounds());
}

TEST(Scheduler, AdversarialStarvationDelaysTerminationExactly) {
  // Everyone needs the starved party's word and the starved party needs
  // everyone's (its inbound traffic is starved too): every run decides
  // exactly max_delay rounds late.
  const int kDelay = 4;
  Engine engine;
  const RunStats stats = engine.run_batch(gossip_spec(4, 24).with_scheduler(
      SchedulerSpec::adversarial_starve({0}, kDelay)));
  EXPECT_DOUBLE_EQ(stats.termination_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.success_rate(), 1.0);
  ASSERT_EQ(stats.round_histogram.size(), 1u);
  EXPECT_EQ(stats.round_histogram.at(1 + kDelay), 24u);
}

TEST(Scheduler, ZeroDelayAdversaryIsTheSynchronousBaseline) {
  Engine engine;
  const RunStats sync = engine.run_batch(gossip_spec(5, 16));
  const RunStats starved = engine.run_batch(gossip_spec(5, 16).with_scheduler(
      SchedulerSpec::adversarial_starve({0, 2}, 0)));
  EXPECT_EQ(starved, sync);
}

TEST(Scheduler, DelayedGossipIndependentOfThreadCount) {
  const auto spec =
      gossip_spec(5, 29).with_scheduler(SchedulerSpec::random_delay(5));
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  for (int threads : {2, 8}) {
    Engine parallel;
    parallel.set_parallel({threads, 0});
    EXPECT_EQ(parallel.run_batch(spec), reference) << "threads=" << threads;
  }
}

// ----------------------------- knowledge-backend message-passing faults

/// Knowledge-level message-passing spec with crash faults — the silence
/// kind (KnowledgeStore::silence) makes this combination runnable; before
/// it, validate() rejected MP faults on the knowledge backend.
Experiment faulty_mp_spec(int n, int crashes, std::uint64_t seeds) {
  return Experiment::message_passing(SourceConfiguration::all_private(n),
                                     PortPolicy::kCyclic)
      .with_protocol("wait-for-singleton-LE")
      .with_task("t-resilient-leader-election(" + std::to_string(crashes) +
                 ")")
      .with_faults(FaultPlan::crash_stop(crashes, 6))
      .with_rounds(300)
      .with_seeds(1, seeds);
}

TEST(KnowledgeMPFaults, ValidatesAndRunsOnBothVariants) {
  for (const MessageVariant variant :
       {MessageVariant::kPortTagged, MessageVariant::kLiteral}) {
    auto spec = faulty_mp_spec(5, 2, 32).with_variant(variant);
    spec.validate();  // used to throw before the silence kind existed
    Engine engine;
    const RunStats stats = engine.run_batch(spec);
    EXPECT_EQ(stats.runs, 32u);
    EXPECT_EQ(stats.crashed_parties, 2u * 32u);
    EXPECT_GT(stats.terminated, 0u)
        << "survivors must elect under " << rsb::to_string(variant);
    EXPECT_GT(stats.task_successes, 0u);
  }
}

TEST(KnowledgeMPFaults, ByteIdenticalAcrossThreadCountsAndChunks) {
  const auto spec = faulty_mp_spec(5, 2, 48);
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  for (int threads : {2, 8}) {
    Engine parallel;
    parallel.set_parallel({threads, 0});
    EXPECT_EQ(parallel.run_batch(spec), reference) << "threads=" << threads;
  }
  for (std::uint64_t chunk : {1u, 3u, 7u, 100u}) {
    Engine parallel;
    parallel.set_parallel({4, chunk});
    EXPECT_EQ(parallel.run_batch(spec), reference) << "chunk=" << chunk;
  }
}

TEST(KnowledgeMPFaults, CrashZeroIsByteIdenticalToThePlainPath) {
  // The PR 4 compatibility pin, extended to the new combination: an empty
  // fault plan with silence support must leave the message-passing
  // knowledge recursion bit-for-bit untouched.
  auto plain = Experiment::message_passing(SourceConfiguration::from_loads(
                                               {2, 2, 1}),
                                           PortPolicy::kRandomPerRun)
                   .with_protocol("wait-for-singleton-LE")
                   .with_task("leader-election")
                   .with_port_seed(19)
                   .with_rounds(300)
                   .with_seeds(1, 40);
  auto layered = plain;
  layered.with_faults(FaultPlan::crash_stop(0, 9, 777));
  Engine engine;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto a = engine.run(plain, seed);
    const auto b = engine.run(layered, seed);
    EXPECT_TRUE(outcomes_identical(a, b)) << "seed " << seed;
    EXPECT_TRUE(b.crash_round.empty());
  }
  EXPECT_EQ(engine.run_batch(plain), engine.run_batch(layered));
}

TEST(KnowledgeMPFaults, SilenceMasksCrashedChannels) {
  // Direct semantics of message_round under a crash schedule: the crashed
  // party's knowledge freezes, survivors' tuples carry the silence value
  // (tag 0) on the dead channel, and an empty schedule is fault free.
  KnowledgeStore store;
  const PortAssignment ports = PortAssignment::cyclic(3);
  const std::vector<bool> bits = {true, false, true};
  const std::vector<KnowledgeId> prev = initial_knowledge(store, 3);

  const auto plain = message_round(store, prev, bits, ports);
  const auto empty_sched = message_round(store, prev, bits, ports,
                                         MessageVariant::kPortTagged, {}, 1);
  EXPECT_EQ(plain, empty_sched);

  // Party 1 crashes at round 1: it never participates.
  const std::vector<int> crash = {-1, 1, -1};
  const auto next = message_round(store, prev, bits, ports,
                                  MessageVariant::kPortTagged, crash, 1);
  EXPECT_EQ(next[1], prev[1]) << "crashed knowledge frozen";
  EXPECT_NE(next[0], plain[0]) << "survivor sees a silent channel";
  const KnowledgeId silence = store.silence();
  EXPECT_EQ(store.kind(silence), KnowledgeKind::kSilence);
  // Survivor 0's tuple: exactly one silence entry (the dead neighbor),
  // with reciprocal tag 0 at the same position.
  const auto received = store.received(next[0]);
  const auto tags = store.tags(next[0]);
  ASSERT_EQ(received.size(), 2u);
  ASSERT_EQ(tags.size(), 2u);
  int silent_entries = 0;
  for (std::size_t p = 0; p < received.size(); ++p) {
    if (received[p] == silence) {
      ++silent_entries;
      EXPECT_EQ(tags[p], 0) << "a silent channel transmits no tag";
    } else {
      EXPECT_GE(tags[p], 1);
    }
  }
  EXPECT_EQ(silent_entries, 1);
}

TEST(KnowledgeMPFaults, CrashSchedulesHonoredRunForRun) {
  const auto spec = faulty_mp_spec(5, 1, 24);
  Engine engine;
  std::vector<int> expected;
  testing::replay_runs(
      engine, spec, [&](const RunView& view, const ProtocolOutcome& outcome) {
        spec.faults.draw(5, view.seed, expected);
        EXPECT_EQ(outcome.crash_round, expected) << "seed " << view.seed;
        for (int party = 0; party < 5; ++party) {
          const int crash =
              outcome.crash_round[static_cast<std::size_t>(party)];
          const int decided =
              outcome.decision_round[static_cast<std::size_t>(party)];
          if (crash >= 0 && decided >= 0) {
            EXPECT_LT(decided, crash);
          }
          if (outcome.terminated && crash < 0) {
            EXPECT_GE(decided, 0);
          }
        }
      });
}

// ------------------------------------------------- t-resilient tasks

TEST(ResilientTasks, SurvivorJudgedAdmission) {
  const SymmetricTask le = SymmetricTask::resilient_leader_election(4, 2);
  // Full census, one leader: admitted (t-resilient generalizes strict).
  EXPECT_TRUE(le.admits_vector({0, 1, 0, 0}));
  EXPECT_FALSE(le.admits_vector({1, 1, 0, 0}));
  // One crash: the dead party's value is ignored — even a dead "leader".
  EXPECT_TRUE(le.admits_surviving({1, 1, 0, 0},
                                  {false, true, true, true}));
  EXPECT_FALSE(le.admits_surviving({0, 1, 1, 0},
                                   {false, true, true, true}));
  // Three crashes exceed t = 2: rejected even with a surviving leader.
  EXPECT_FALSE(le.admits_surviving({0, 1, 0, 0},
                                   {false, true, false, false}));

  const SymmetricTask two = SymmetricTask::resilient_two_leader(5, 1);
  EXPECT_TRUE(two.admits_surviving({1, 1, 0, 0, 0},
                                   {true, true, true, true, false}));
  EXPECT_FALSE(two.admits_surviving({1, 1, 1, 0, 0},
                                    {true, true, true, true, false}));
}

TEST(ResilientTasks, MatchingCensusParity) {
  const SymmetricTask strict = SymmetricTask::matching(4);
  EXPECT_TRUE(strict.admits_vector({1, 1, 0, -1}));
  EXPECT_FALSE(strict.admits_vector({1, 0, 0, -1}));
  const SymmetricTask resilient = SymmetricTask::resilient_matching(4, 1);
  const std::vector<bool> all = {true, true, true, true};
  const std::vector<bool> one_down = {true, true, true, false};
  // An odd matched count is explicable only by a crashed partner.
  EXPECT_FALSE(resilient.admits_surviving({1, 0, 0, 0}, all));
  EXPECT_TRUE(resilient.admits_surviving({1, 0, 0, 0}, one_down));
  EXPECT_TRUE(resilient.admits_surviving({1, 1, 0, 1}, one_down));
  // More than t parties missing: rejected regardless of parity.
  EXPECT_FALSE(resilient.admits_surviving({1, 1, 0, 0},
                                          {true, true, false, false}));
}

TEST(ResilientTasks, RegistryResolvesTheResilientFamily) {
  EXPECT_EQ(make_task("t-resilient-leader-election(2)", 5).name(),
            "2-resilient-1-LE");
  EXPECT_EQ(make_task("t-resilient-two-leader(1)", 5).name(),
            "1-resilient-2-LE");
  EXPECT_EQ(make_task("t-resilient-m-leader-election(3,2)", 6).name(),
            "2-resilient-3-LE");
  EXPECT_EQ(make_task("t-resilient-matching(1)", 4).name(),
            "1-resilient-matching");
  EXPECT_EQ(make_task("matching", 4).name(), "matching");
  EXPECT_THROW(make_task("t-resilient-leader-election(4)", 4),
               InvalidArgument);
}

// ------------------------------------------------------- grid axes

TEST(FaultGrid, AxesExpandDeterministically) {
  Grid grid(faulty_blackboard_spec(4, 0, 8));
  grid.over_fault_counts({0, 1, 2})
      .over_schedulers({SchedulerSpec::synchronous(),
                        SchedulerSpec::adversarial_starve({1}, 0)});
  ASSERT_EQ(grid.size(), 6u);
  const auto points = grid.expand();
  EXPECT_EQ(points[0].label(), "faults=t0 scheduler=synchronous");
  EXPECT_EQ(points[1].label(), "faults=t0 scheduler=starve{1}(0)");
  EXPECT_EQ(points[4].label(), "faults=t2 scheduler=synchronous");
  EXPECT_EQ(points[2].spec.faults.crashes, 1);
  EXPECT_EQ(points[3].spec.scheduler.kind, SchedulerKind::kAdversarialStarve);
  // Expansion is independent of the engine that later runs the points.
  Engine serial;
  Engine parallel;
  parallel.set_parallel({4, 2});
  const auto a = run_grid(serial, grid);
  const auto b = run_grid(parallel, grid);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "point " << i;
  }
  // t = 0 points coincide with the plain engine, faulty points crash.
  EXPECT_EQ(a[0].crashed_parties, 0u);
  EXPECT_EQ(a[4].crashed_parties, 2u * 8u);
}

// ----------------------------------------------------- golden fixture

TEST(FaultGrid, FaultSweepTableMatchesGoldenFixture) {
  // The full stack end to end — fault sweep through the grid, collectors,
  // and the ResultTable emitters — pinned byte-for-byte. Catching format
  // drift here is the point: regenerate with UPDATE_GOLDEN=1 only for
  // intentional changes.
  // The base task tolerates t = 2, so every point of the t-sweep is judged
  // by the same survivor-based predicate and the success column shows the
  // real degradation (a leader that crashes after deciding is a dead
  // leader).
  Grid grid(faulty_blackboard_spec(5, 2, 24));
  grid.over_fault_counts({0, 1, 2});
  Engine engine;
  const ResultTable table =
      grid_table("fault_sweep", grid, run_grid(engine, grid));
  rsb::testing::expect_matches_golden(table.to_csv(), "fault_sweep.csv");
  rsb::testing::expect_matches_golden(table.to_text(), "fault_sweep.txt");
}

}  // namespace
}  // namespace rsb
