// Cross-module property tests: invariants that must hold across sweeps of
// configurations, times, port assignments and seeds. These are the
// library's "laws"; each encodes a fact the paper's proofs rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "algo/agents.hpp"
#include "algo/protocol.hpp"
#include "graph/agents.hpp"
#include "graph/topology.hpp"
#include "core/consistency.hpp"
#include "core/deciders.hpp"
#include "core/probability.hpp"
#include "core/solvability.hpp"
#include "engine/engine.hpp"
#include "protocol/complexes.hpp"
#include "randomness/source_bank.hpp"
#include "reference_run.hpp"
#include "util/numeric.hpp"

namespace rsb {
namespace {

using testing::ReferenceSweep;
using testing::reference_sweep;
using testing::snapshot_sweep;

bool refines(const std::vector<int>& fine, const std::vector<int>& coarse) {
  // Every fine class lies inside one coarse class.
  for (std::size_t i = 0; i < fine.size(); ++i) {
    for (std::size_t j = i + 1; j < fine.size(); ++j) {
      if (fine[i] == fine[j] && coarse[i] != coarse[j]) return false;
    }
  }
  return true;
}

struct SweepCase {
  std::vector<int> loads;
  std::uint64_t seed;
};

class ConfigSweep : public ::testing::TestWithParam<SweepCase> {};

// Law 1 — consistency partitions only split over time (knowledge is
// cumulative, Section 3.2): partition(t+1) refines partition(t), in both
// models, under arbitrary wirings.
TEST_P(ConfigSweep, PartitionsRefineOverTime) {
  const auto& [loads, seed] = GetParam();
  const auto config = SourceConfiguration::from_loads(loads);
  const int n = config.num_parties();
  SourceBank bank(config, seed);
  Xoshiro256StarStar rng(seed ^ 0xabcdef);
  const PortAssignment ports = PortAssignment::random(n, rng);
  KnowledgeStore store;
  std::vector<int> previous_bb(static_cast<std::size_t>(n), 0);
  std::vector<int> previous_mp(static_cast<std::size_t>(n), 0);
  for (int t = 1; t <= 10; ++t) {
    const Realization rho = bank.realization_at(t);
    const auto bb = consistency_partition_blackboard(store, rho);
    const auto mp = consistency_partition_message_passing(store, rho, ports);
    EXPECT_TRUE(refines(bb, previous_bb)) << "t=" << t;
    EXPECT_TRUE(refines(mp, previous_mp)) << "t=" << t;
    previous_bb = bb;
    previous_mp = mp;
  }
}

// Law 2 — the tagged message-passing partition refines the blackboard
// (equal-string) partition: ports add distinguishing power, never remove.
TEST_P(ConfigSweep, MessagePassingRefinesBlackboard) {
  const auto& [loads, seed] = GetParam();
  const auto config = SourceConfiguration::from_loads(loads);
  const int n = config.num_parties();
  SourceBank bank(config, seed);
  Xoshiro256StarStar rng(seed * 31);
  const PortAssignment ports = PortAssignment::random(n, rng);
  KnowledgeStore store;
  for (int t = 1; t <= 6; ++t) {
    const Realization rho = bank.realization_at(t);
    EXPECT_TRUE(
        refines(consistency_partition_message_passing(store, rho, ports),
                rho.equal_string_partition()))
        << "t=" << t;
  }
}

// Law 3 — knowledge ids are deterministic functions of the execution:
// independent stores replaying the same realization agree on the induced
// partition (ids may differ; classes may not).
TEST_P(ConfigSweep, PartitionIndependentOfStoreHistory) {
  const auto& [loads, seed] = GetParam();
  const auto config = SourceConfiguration::from_loads(loads);
  SourceBank bank(config, seed);
  const Realization rho = bank.realization_at(5);
  KnowledgeStore fresh;
  KnowledgeStore polluted;
  // Pollute the second store with unrelated values first.
  for (int i = 0; i < 50; ++i) polluted.input(i);
  EXPECT_EQ(consistency_partition_blackboard(fresh, rho),
            consistency_partition_blackboard(polluted, rho));
}

// Law 4 — solvability is monotone under partition refinement for every
// symmetric task: if a coarse partition solves, so does any refinement.
TEST_P(ConfigSweep, SolvabilityMonotoneUnderRefinement) {
  const auto& [loads, seed] = GetParam();
  const auto config = SourceConfiguration::from_loads(loads);
  const int n = config.num_parties();
  SourceBank bank(config, seed);
  KnowledgeStore store;
  for (int m = 1; m <= std::min(3, n); ++m) {
    const SymmetricTask task = SymmetricTask::m_leader_election(n, m);
    std::vector<int> coarse(static_cast<std::size_t>(n), 0);
    for (int t = 1; t <= 8; ++t) {
      const auto fine =
          consistency_partition_blackboard(store, bank.realization_at(t));
      if (solves_by_partition(coarse, task)) {
        EXPECT_TRUE(solves_by_partition(fine, task))
            << "m=" << m << " t=" << t;
      }
      coarse = fine;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConfigSweep,
    ::testing::Values(SweepCase{{1, 1}, 1}, SweepCase{{2, 1}, 2},
                      SweepCase{{2, 2}, 3}, SweepCase{{2, 3}, 4},
                      SweepCase{{1, 1, 2}, 5}, SweepCase{{3, 3}, 6},
                      SweepCase{{4}, 7}, SweepCase{{1, 2, 3}, 8},
                      SweepCase{{2, 2, 2}, 9}, SweepCase{{5, 2}, 10}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = "loads";
      for (int v : info.param.loads) name += std::to_string(v);
      return name + "_s" + std::to_string(info.param.seed);
    });

// Law 5 — h is a facet bijection for arbitrary port assignments, not just
// the cyclic one: all 8 assignments at n = 3.
TEST(HMapProperty, FacetIsomorphismUnderAllAssignmentsN3) {
  PortAssignment::for_each(3, [](const PortAssignment& pa) {
    KnowledgeStore store;
    const KnowledgeComplex p =
        build_protocol_complex_message_passing(store, pa, 2);
    const RealizationComplex r = build_realization_complex(3, 2);
    EXPECT_TRUE(h_is_facet_isomorphism(store, p, r)) << pa.to_string();
  });
}

// Law 6 — the Lemma 4.3 construction is valid and automorphic for every
// block size dividing n, up to n = 24.
TEST(AdversarialProperty, ValidAndAutomorphicForAllDivisors) {
  for (int n = 2; n <= 24; ++n) {
    for (int g = 2; g <= n; ++g) {
      if (n % g != 0) continue;
      const PortAssignment pa = PortAssignment::adversarial(n, g);
      std::vector<int> f(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        f[static_cast<std::size_t>(i)] = (i / g) * g + (i % g + 1) % g;
      }
      EXPECT_TRUE(pa.is_automorphism(f)) << "n=" << n << " g=" << g;
      // Reciprocal-port preservation (the tagged model's requirement).
      bool reciprocal = true;
      for (int i = 0; i < n && reciprocal; ++i) {
        for (int p = 1; p <= n - 1 && reciprocal; ++p) {
          const int u = pa.neighbor(i, p);
          reciprocal = pa.port_to(u, i) ==
                       pa.port_to(f[static_cast<std::size_t>(u)],
                                  f[static_cast<std::size_t>(i)]);
        }
      }
      EXPECT_TRUE(reciprocal) << "n=" << n << " g=" << g;
    }
  }
}

// Law 7 — Dyadic arithmetic agrees with floating point and keeps exact
// identities.
TEST(DyadicProperty, RandomizedArithmeticAgreesWithDouble) {
  Xoshiro256StarStar rng(12345);
  for (int trial = 0; trial < 2000; ++trial) {
    const int da = static_cast<int>(rng.below(20));
    const int db = static_cast<int>(rng.below(20));
    const Dyadic a(rng.below((1ULL << da) + 1), da);
    const Dyadic b(rng.below((1ULL << db) + 1), db);
    // Multiplication always stays in [0,1].
    const Dyadic product = a * b;
    EXPECT_NEAR(product.to_double(), a.to_double() * b.to_double(), 1e-12);
    // Complement is an involution.
    EXPECT_EQ(a.complement().complement(), a);
    // Ordering agrees with double ordering.
    EXPECT_EQ(a < b, a.to_double() < b.to_double());
    // Addition when it fits.
    if (a.to_double() + b.to_double() <= 1.0) {
      const Dyadic sum = a + b;
      EXPECT_NEAR(sum.to_double(), a.to_double() + b.to_double(), 1e-12);
      EXPECT_EQ(sum - b, a);
    }
  }
}

// Law 8 — protocols decide name-independently: parties with identical
// final knowledge produce identical outputs.
TEST(ProtocolProperty, EqualKnowledgeImpliesEqualOutputs) {
  const WaitForSingletonLE protocol;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto config = SourceConfiguration::from_loads({2, 2, 1});
    const auto outcome = run_protocol(Model::kBlackboard, config, std::nullopt,
                                      protocol, seed, 200);
    if (!outcome.terminated) continue;
    // Recompute the final realization & partition and compare outputs
    // within classes at the decision round.
    SourceBank bank(config, seed);
    KnowledgeStore store;
    const Realization rho = bank.realization_at(outcome.rounds);
    const auto partition = consistency_partition_blackboard(store, rho);
    for (int i = 0; i < 5; ++i) {
      for (int j = i + 1; j < 5; ++j) {
        if (partition[static_cast<std::size_t>(i)] ==
                partition[static_cast<std::size_t>(j)] &&
            outcome.decision_round[static_cast<std::size_t>(i)] ==
                outcome.decision_round[static_cast<std::size_t>(j)]) {
          EXPECT_EQ(outcome.outputs[static_cast<std::size_t>(i)],
                    outcome.outputs[static_cast<std::size_t>(j)])
              << "seed=" << seed;
        }
      }
    }
  }
}

// Law 9 — exact engine vs Monte-Carlo across random shapes.
TEST(EngineProperty, MonteCarloTracksExactAcrossShapes) {
  Xoshiro256StarStar shape_rng(2718);
  for (const auto& loads :
       std::vector<std::vector<int>>{{1, 2}, {2, 2}, {1, 1, 2}, {3, 2}}) {
    const auto config = SourceConfiguration::from_loads(loads);
    const int n = config.num_parties();
    const SymmetricTask task =
        SymmetricTask::m_leader_election(n, 1 + static_cast<int>(
                                                  shape_rng.below(2)));
    const int t = 3;
    const double exact =
        exact_solve_probability_blackboard(config, task, t).to_double();
    const auto estimate = monte_carlo_solve_probability(
        config, task, t, std::nullopt, 20000, shape_rng.next());
    EXPECT_NEAR(estimate.p_hat, exact, 5 * estimate.std_error + 1e-9);
  }
}

// Law 10 — subset-sum reachability matches the m-LE blackboard decider on
// every shape and every m (two independent formulations).
TEST(DeciderProperty, SubsetSumFormulationMatchesPartitionSolver) {
  for (int n = 2; n <= 9; ++n) {
    for (const auto& config : SourceConfiguration::enumerate_load_shapes(n)) {
      const auto reachable = reachable_subset_sums(config.loads());
      for (int m = 0; m <= n; ++m) {
        const SymmetricTask task = SymmetricTask::m_leader_election(n, m);
        const bool via_decider = eventually_solvable_blackboard(config, task);
        const bool via_sums =
            std::binary_search(reachable.begin(), reachable.end(), m);
        EXPECT_EQ(via_decider, via_sums)
            << config.to_string() << " m=" << m;
      }
    }
  }
}

// Law 11 — fault draws are a pure function of (spec, seed): across random
// plan shapes, the schedule recomputed from scratch equals the schedule
// reported by engine runs, whatever engine, thread count, or scratch
// history produced it.
TEST(FaultProperty, DrawsArePureFunctionsOfSpecAndSeed) {
  Xoshiro256StarStar shape_rng(424242);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(shape_rng.below(7));
    const sim::FaultPlan plan = sim::FaultPlan::crash_stop(
        static_cast<int>(shape_rng.below(static_cast<std::uint64_t>(n))),
        1 + static_cast<int>(shape_rng.below(10)), shape_rng.next());
    const std::uint64_t seed = shape_rng.next();
    std::vector<int> fresh;
    plan.draw(n, seed, fresh);
    // A polluted scratch vector never leaks into the draw.
    std::vector<int> polluted(37, 123);
    plan.draw(n, seed, polluted);
    EXPECT_EQ(polluted, fresh) << "trial " << trial;
  }
  // Engine-reported schedules across thread counts equal the plan's draw.
  auto spec = Experiment::blackboard(SourceConfiguration::all_private(4))
                  .with_protocol("wait-for-singleton-LE")
                  .with_faults(sim::FaultPlan::crash_stop(1, 5))
                  .with_rounds(200)
                  .with_seeds(3, 20);
  for (int threads : {1, 4}) {
    Engine engine;
    engine.set_parallel({threads, 0});
    std::vector<int> expected;
    testing::replay_runs(
        engine, spec, [&](const RunView& view, const ProtocolOutcome& outcome) {
          spec.faults.draw(4, view.seed, expected);
          EXPECT_EQ(outcome.crash_round, expected)
              << "seed " << view.seed << " threads " << threads;
        });
  }
}

// Law 12 — crashing zero parties is byte-identical to the no-fault path,
// on both backends: the fault layer must be invisible when empty.
TEST(FaultProperty, CrashingZeroPartiesIsByteIdenticalToNoFaultPath) {
  auto knowledge = Experiment::blackboard(SourceConfiguration::from_loads(
                                              {2, 1, 1}))
                       .with_protocol("blackboard-unique-string-LE")
                       .with_task("leader-election")
                       .with_rounds(200)
                       .with_seeds(1, 32);
  auto agents = Experiment::message_passing(SourceConfiguration::all_private(4),
                                            PortPolicy::kCyclic)
                    .with_agents([](int) {
                      return std::make_unique<sim::GossipLeaderElectionAgent>();
                    })
                    .with_task("leader-election")
                    .with_rounds(40)
                    .with_seeds(1, 32);
  // The knowledge backend runs faulty message passing too now (silence
  // kind): its empty-plan path must be equally invisible.
  auto knowledge_mp =
      Experiment::message_passing(SourceConfiguration::all_private(4),
                                  PortPolicy::kCyclic)
          .with_protocol("wait-for-singleton-LE")
          .with_task("leader-election")
          .with_rounds(200)
          .with_seeds(1, 32);
  Engine engine;
  for (const Experiment& plain : {knowledge, agents, knowledge_mp}) {
    Experiment zeroed = plain;
    zeroed.with_faults(sim::FaultPlan::crash_stop(0, 17, 999));
    EXPECT_EQ(engine.run_batch(zeroed), engine.run_batch(plain));
    const ProtocolOutcome a = engine.run(plain, 7);
    const ProtocolOutcome b = engine.run(zeroed, 7);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.decision_round, b.decision_round);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.terminated, b.terminated);
    EXPECT_TRUE(b.crash_round.empty());
  }
}

// Law 13½ — the fault adversary is backend-independent: t-resilient
// leader election on the knowledge backend and on the agent backend,
// given the same FaultPlan and shared seeds, face the *same* crash
// schedule run for run — the adversary is a pure function of
// (plan, n, seed), never of the backend, the scheduler, or the worker
// that executed the run — and therefore account the same crash totals.
TEST(FaultProperty, BackendsFaceTheSameAdversaryRunForRun) {
  const sim::FaultPlan plan = sim::FaultPlan::crash_stop(2, 5, 31337);
  const int n = 5;
  const std::uint64_t seeds = 24;
  auto knowledge = Experiment::blackboard(SourceConfiguration::all_private(n))
                       .with_protocol("wait-for-singleton-LE")
                       .with_task("t-resilient-leader-election(2)")
                       .with_faults(plan)
                       .with_rounds(300)
                       .with_seeds(5, seeds);
  auto knowledge_mp =
      Experiment::message_passing(SourceConfiguration::all_private(n),
                                  PortPolicy::kCyclic)
          .with_protocol("wait-for-singleton-LE")
          .with_task("t-resilient-leader-election(2)")
          .with_faults(plan)
          .with_rounds(300)
          .with_seeds(5, seeds);
  auto agents = Experiment::message_passing(SourceConfiguration::all_private(n),
                                            PortPolicy::kCyclic)
                    .with_agents([](int) {
                      return std::make_unique<sim::GossipLeaderElectionAgent>();
                    })
                    .with_task("t-resilient-leader-election(2)")
                    .with_faults(plan)
                    .with_rounds(40)
                    .with_seeds(5, seeds);
  Engine engine;
  auto schedules_of = [&engine](const Experiment& spec) {
    std::vector<std::vector<int>> schedules;
    testing::replay_runs(engine, spec,
                         [&](const RunView&, const ProtocolOutcome& outcome) {
                           schedules.push_back(outcome.crash_round);
                         });
    return schedules;
  };
  const auto a = schedules_of(knowledge);
  const auto b = schedules_of(knowledge_mp);
  const auto c = schedules_of(agents);
  ASSERT_EQ(a.size(), seeds);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  // Equal schedules imply equal crash accounting in the aggregates.
  const RunStats ka = engine.run_batch(knowledge);
  const RunStats ga = engine.run_batch(agents);
  EXPECT_EQ(ka.crashed_parties, ga.crashed_parties);
  EXPECT_EQ(ka.crashed_parties, 2u * seeds);
  // And the knowledge backends genuinely solve the t-resilient task on
  // both models — survivors elect a leader despite the shared adversary.
  EXPECT_GT(ka.task_successes, 0u);
  EXPECT_GT(engine.run_batch(knowledge_mp).task_successes, 0u);
}

// Law 13 — scheduler output is independent of thread count: random
// delivery schedules are drawn from per-run streams, so sweeping under
// any ParallelConfig reproduces the serial aggregate byte for byte.
TEST(SchedulerProperty, OutputIndependentOfThreadCount) {
  Xoshiro256StarStar shape_rng(5150);
  for (int trial = 0; trial < 3; ++trial) {
    const int delay = 1 + static_cast<int>(shape_rng.below(4));
    auto spec =
        Experiment::message_passing(SourceConfiguration::all_private(4),
                                    PortPolicy::kCyclic)
            .with_agents([](int) {
              return std::make_unique<sim::GossipLeaderElectionAgent>();
            })
            .with_task("leader-election")
            .with_scheduler(sim::SchedulerSpec::random_delay(delay,
                                                             shape_rng.next()))
            .with_rounds(40)
            .with_seeds(1, 25 + static_cast<std::uint64_t>(trial));
    Engine serial;
    const RunStats reference = serial.run_batch(spec);
    for (int threads : {2, 8}) {
      Engine parallel;
      parallel.set_parallel({threads, 0});
      EXPECT_EQ(parallel.run_batch(spec), reference)
          << "delay " << delay << " threads " << threads;
    }
  }
}

// Law 14 — the engine's execution is the paper's execution: for every
// thread count and batch width, per-run outcomes and the merged
// aggregate equal an independent per-run reference (tests/reference_run.hpp:
// fresh store and SourceBank, value-returning round operators, per-party
// decide through tests/reference_decide.hpp's bodies), on both models
// (fault-free blackboard; message passing under per-run random wirings)
// and for every protocol's pre-round rule. The unique-string specs are
// all-private: there several strings can be unique at once, and the
// smallest string and the smallest singleton id can name different
// parties (with loads {2,2,1} only the load-1 party can ever be unique, so
// a wrong leader rule would pass). The class-split(2) specs have classes
// of sizes 1 and 2 at once, so several sub-collections can reach 2. The
// batch width is an ignored field, so the widths at four threads check
// that it changes nothing; 97 seeds is prime, so the auto chunks cut a
// narrower remainder.
TEST(BatchProperty, BatchedSweepsMatchTheReferenceRunForRun) {
  const auto blackboard =
      Experiment::blackboard(SourceConfiguration::from_loads({2, 2, 1}))
          .with_protocol("wait-for-singleton-LE")
          .with_task("leader-election")
          .with_rounds(300)
          .with_seeds(1, 97);
  const auto message =
      Experiment::message_passing(SourceConfiguration::all_private(5),
                                  PortPolicy::kRandomPerRun)
          .with_protocol("wait-for-singleton-LE")
          .with_task("leader-election")
          .with_rounds(300)
          .with_seeds(11, 97);
  const auto unique_blackboard =
      Experiment::blackboard(SourceConfiguration::all_private(6))
          .with_protocol("blackboard-unique-string-LE")
          .with_task("leader-election")
          .with_rounds(300)
          .with_seeds(1, 97);
  const auto unique_message =
      Experiment::message_passing(SourceConfiguration::all_private(5),
                                  PortPolicy::kRandomPerRun)
          .with_protocol("blackboard-unique-string-LE")
          .with_task("leader-election")
          .with_rounds(300)
          .with_seeds(11, 97);
  const auto split_blackboard =
      Experiment::blackboard(SourceConfiguration::from_loads({2, 1, 1, 2}))
          .with_protocol("wait-for-class-split-LE(2)")
          .with_task("m-leader-election(2)")
          .with_rounds(300)
          .with_seeds(1, 97);
  const auto split_message =
      Experiment::message_passing(SourceConfiguration::from_loads({2, 1, 2}),
                                  PortPolicy::kRandomPerRun)
          .with_protocol("wait-for-class-split-LE(2)")
          .with_task("m-leader-election(2)")
          .with_rounds(300)
          .with_seeds(11, 97);
  for (const Experiment& spec :
       {blackboard, message, unique_blackboard, unique_message,
        split_blackboard, split_message}) {
    const ReferenceSweep reference = reference_sweep(spec);
    ASSERT_EQ(reference.runs.size(), 97u);
    for (const ParallelConfig parallel :
         {ParallelConfig{1, 0, 1}, ParallelConfig{4, 0, 1},
          ParallelConfig{4, 0, 2}, ParallelConfig{4, 0, 7},
          ParallelConfig{4, 0, 16}}) {
      Engine engine;
      engine.set_parallel(parallel);
      EXPECT_EQ(engine.run_batch(spec), reference.stats)
          << "batch " << parallel.batch << " threads " << parallel.threads;
      EXPECT_EQ(snapshot_sweep(engine, spec), reference.runs)
          << "batch " << parallel.batch << " threads " << parallel.threads;
    }
  }
}

// Law 15 — crash sweeps face the reference run for run: a faulty run
// executes the same crash bookkeeping, round operators, and per-party
// decides as the per-run definition, so outcomes — crash schedules
// included — are byte-identical.
TEST(BatchProperty, BatchedCrashSweepsMatchTheReferenceRunForRun) {
  const auto blackboard =
      Experiment::blackboard(SourceConfiguration::all_private(6))
          .with_protocol("wait-for-singleton-LE")
          .with_task("t-resilient-leader-election(2)")
          .with_faults(sim::FaultPlan::crash_stop(2, 9))
          .with_rounds(300)
          .with_seeds(1, 61);
  const auto message =
      Experiment::message_passing(SourceConfiguration::all_private(5),
                                  PortPolicy::kRandomPerRun)
          .with_protocol("wait-for-singleton-LE")
          .with_task("t-resilient-leader-election(1)")
          .with_faults(sim::FaultPlan::crash_stop(1, 11))
          .with_rounds(300)
          .with_seeds(3, 61);
  const auto split_blackboard =
      Experiment::blackboard(SourceConfiguration::from_loads({2, 1, 1, 2}))
          .with_protocol("wait-for-class-split-LE(2)")
          .with_task("t-resilient-m-leader-election(2,1)")
          .with_faults(sim::FaultPlan::crash_stop(1, 7))
          .with_rounds(300)
          .with_seeds(5, 61);
  for (const Experiment& spec : {blackboard, message, split_blackboard}) {
    const ReferenceSweep reference = reference_sweep(spec);
    ASSERT_EQ(reference.runs.size(), 61u);
    Engine engine;
    EXPECT_EQ(engine.run_batch(spec), reference.stats);
    EXPECT_EQ(snapshot_sweep(engine, spec), reference.runs);
  }
}

// Law 16 — topology=clique IS the all-to-all path: with_topology
// normalizes a clique to the no-topology spec, so sweeps agree byte for
// byte on every existing task, aggregates and per-run outcomes alike.
TEST(GraphProperty, CliqueTopologyIsByteIdenticalToAllToAll) {
  for (const char* task : {"leader-election", "m-leader-election(2)",
                           "weak-symmetry-breaking", "matching"}) {
    auto plain =
        Experiment::message_passing(SourceConfiguration::all_private(6))
            .with_agents(graph::make_agents("gossip-le"))
            .with_task(task)
            .with_rounds(40)
            .with_seeds(1, 32);
    Experiment routed = plain;
    routed.with_topology("clique");
    EXPECT_EQ(routed.topology, nullptr) << task;
    Engine engine;
    EXPECT_EQ(engine.run_batch(routed), engine.run_batch(plain)) << task;
    EXPECT_EQ(snapshot_sweep(engine, routed), snapshot_sweep(engine, plain))
        << task;
  }
}

// Law 17 — graph-task sweeps are pure functions of (spec, seed): for each
// delivery scheduler, every thread count and batch width reproduces the
// serial aggregate and the per-run outcomes byte for byte on a sparse
// instance. The batch width is an ignored field, so batch 7 at two and
// four threads checks that it changes nothing.
TEST(GraphProperty, GraphTaskSweepsIndependentOfThreadsBatchAndWorkers) {
  for (const sim::SchedulerSpec& scheduler :
       {sim::SchedulerSpec::synchronous(),
        sim::SchedulerSpec::random_delay(2, 77)}) {
    auto spec =
        Experiment::message_passing(SourceConfiguration::all_private(16))
            .with_agents(graph::make_agents("luby-mis"))
            .with_topology("d-regular(3)")
            .with_scheduler(scheduler)
            .with_rounds(200)
            .with_seeds(1, 33);
    spec.with_task("mis");
    Engine serial;
    const RunStats reference_stats = serial.run_batch(spec);
    const auto reference_runs = snapshot_sweep(serial, spec);
    ASSERT_EQ(reference_runs.size(), 33u);
    for (const ParallelConfig parallel :
         {ParallelConfig{1, 0, 1}, ParallelConfig{2, 0, 1},
          ParallelConfig{2, 0, 7}, ParallelConfig{4, 0, 1},
          ParallelConfig{4, 0, 7}}) {
      Engine engine;
      engine.set_parallel(parallel);
      EXPECT_EQ(engine.run_batch(spec), reference_stats)
          << scheduler.to_string() << " threads " << parallel.threads
          << " batch " << parallel.batch;
      EXPECT_EQ(snapshot_sweep(engine, spec), reference_runs)
          << scheduler.to_string() << " threads " << parallel.threads
          << " batch " << parallel.batch;
    }
  }
}

// Law 18 — topology generation is a pure function of (spec, n, seed):
// repeated resolutions build byte-identical adjacency, and the registry
// spelling equals the direct constructor.
TEST(GraphProperty, TopologyGenerationIsPure) {
  for (const char* spec : {"ring", "tree", "d-regular(4)", "erdos-renyi(3)",
                           "power-law(2)"}) {
    const auto a = graph::make_topology(spec, 20, 1234);
    const auto b = graph::make_topology(spec, 20, 1234);
    EXPECT_EQ(*a, *b) << spec;
  }
  EXPECT_EQ(*graph::make_topology("d-regular(4)", 20, 99),
            graph::Topology::d_regular(20, 4, 99));
  EXPECT_NE(*graph::make_topology("d-regular(4)", 20, 99),
            graph::Topology::d_regular(20, 4, 100));
}

/// Sweeps `spec` (rounds = p.size()) and checks that the share of runs
/// terminated within t rounds is p[t−1], for every t: |z| <= 5 where
/// 0 < p < 1, and an exact count where p is 0 or 1.
void expect_rounds_follow_series(Experiment spec,
                                 const std::vector<Dyadic>& p) {
  spec.with_rounds(static_cast<int>(p.size()));
  Engine engine;
  const RunStats stats = engine.run_batch(spec);
  const double runs = static_cast<double>(stats.runs);
  std::uint64_t within = 0;
  for (std::size_t t = 1; t <= p.size(); ++t) {
    const auto at = stats.round_histogram.find(static_cast<int>(t));
    if (at != stats.round_histogram.end()) within += at->second;
    const double exact = p[t - 1].to_double();
    if (p[t - 1].is_zero() || p[t - 1].is_one()) {
      EXPECT_EQ(static_cast<double>(within), exact * runs)
          << spec.to_string() << " t=" << t;
      continue;
    }
    const double z = (static_cast<double>(within) - runs * exact) /
                     std::sqrt(runs * exact * (1.0 - exact));
    EXPECT_LE(std::abs(z), 5.0)
        << spec.to_string() << " t=" << t << " p=" << exact
        << " share=" << static_cast<double>(within) / runs;
  }
}

/// p(0), ..., p(t_max): at time 0 every party holds ⊥, one class of n;
/// later terms come from the exact enumeration.
std::vector<Dyadic> series_from_zero(const SymmetricTask& task,
                                     std::vector<Dyadic> series) {
  series.insert(series.begin(),
                task.partition_solves({task.num_parties()}) ? Dyadic::one()
                                                            : Dyadic::zero());
  return series;
}

// Law 19 — the engine's round distribution is the paper's exact series. On
// a fault-free run these rules decide at round t exactly when the
// partition at time t−1 solves the task (a singleton class; for
// class-split(m), classes of total size m), and solvability only grows as
// partitions refine, so P(terminated within t rounds) = p(t−1), where p is
// the exact enumeration of Lemma B.1 (exact_series_blackboard,
// exact_series_message_passing). That enumeration shares no code with the
// run kernel, its coins or its port stream, so this law pins all three to
// the paper rather than to a second copy of themselves. Unique-string
// groups by randomness string, which no wiring can split, so on message
// passing it follows the *blackboard* series: loads {2,3} never terminate
// there, while wait-for-singleton does on that shape. Under a random
// per-run wiring each party's port permutation is uniform, so the run
// follows the mean of the fixed-wiring series over all (n−1)!^n wirings:
// 8 at n = 3, a dyadic weight of 1/8, so the mean is exact. Horizons keep
// t·k <= 12 (the message-passing series enumerates 2^{t·k} realizations).
TEST(ExactSeriesProperty, RoundDistributionMatchesTheExactSeries) {
  const std::vector<std::vector<int>> blackboard_loads = {
      {1, 1, 1}, {2, 1, 1}, {3, 1}, {2, 2, 1}, {2, 2}};
  for (const auto& loads : blackboard_loads) {
    const auto config = SourceConfiguration::from_loads(loads);
    const int n = config.num_parties();
    const int t_max = 12 / config.num_sources();
    const SymmetricTask le = SymmetricTask::leader_election(n);
    const SymmetricTask two = SymmetricTask::m_leader_election(n, 2);
    const auto le_series = series_from_zero(
        le, exact_series_blackboard(config, le, t_max));
    const auto two_series = series_from_zero(
        two, exact_series_blackboard(config, two, t_max));
    const auto spec = [&](const char* protocol) {
      return Experiment::blackboard(config).with_protocol(protocol).with_seeds(
          1, 65536);
    };
    expect_rounds_follow_series(spec("wait-for-singleton-LE"), le_series);
    expect_rounds_follow_series(spec("blackboard-unique-string-LE"),
                                le_series);
    expect_rounds_follow_series(spec("wait-for-class-split-LE(1)"),
                                le_series);
    expect_rounds_follow_series(spec("wait-for-class-split-LE(2)"),
                                two_series);
  }
  const std::vector<std::vector<int>> message_loads = {
      {1, 1, 1}, {2, 1}, {2, 3}, {1, 1, 2}};
  for (const auto& loads : message_loads) {
    const auto config = SourceConfiguration::from_loads(loads);
    const int t_max = 12 / config.num_sources();
    const SymmetricTask le =
        SymmetricTask::leader_election(config.num_parties());
    const auto strings = series_from_zero(
        le, exact_series_blackboard(config, le, t_max));
    for (const PortPolicy policy :
         {PortPolicy::kCyclic, PortPolicy::kAdversarial}) {
      const PortAssignment wiring =
          policy == PortPolicy::kCyclic
              ? PortAssignment::cyclic(config.num_parties())
              : PortAssignment::adversarial_for(config);
      const auto knowledge = series_from_zero(
          le, exact_series_message_passing(config, le, t_max, wiring));
      const auto spec = [&](const char* protocol) {
        return Experiment::message_passing(config, policy)
            .with_protocol(protocol)
            .with_seeds(1, 16384);
      };
      expect_rounds_follow_series(spec("wait-for-singleton-LE"), knowledge);
      expect_rounds_follow_series(spec("wait-for-class-split-LE(1)"),
                                  knowledge);
      expect_rounds_follow_series(spec("blackboard-unique-string-LE"),
                                  strings);
    }
  }
  for (const auto& loads : std::vector<std::vector<int>>{{1, 1, 1}, {2, 1}}) {
    const auto config = SourceConfiguration::from_loads(loads);
    const int t_max = 12 / config.num_sources();
    const SymmetricTask le = SymmetricTask::leader_election(3);
    std::vector<Dyadic> mean(static_cast<std::size_t>(t_max), Dyadic::zero());
    int wirings = 0;
    PortAssignment::for_each(3, [&](const PortAssignment& wiring) {
      const auto series =
          exact_series_message_passing(config, le, t_max, wiring);
      for (std::size_t t = 0; t < series.size(); ++t) {
        mean[t] += series[t] * Dyadic::pow2_inverse(3);
      }
      ++wirings;
    });
    ASSERT_EQ(wirings, 8);
    const auto knowledge = series_from_zero(le, mean);
    const auto spec = [&](const char* protocol) {
      return Experiment::message_passing(config, PortPolicy::kRandomPerRun)
          .with_protocol(protocol)
          .with_seeds(1, 16384);
    };
    expect_rounds_follow_series(spec("wait-for-singleton-LE"), knowledge);
    expect_rounds_follow_series(spec("wait-for-class-split-LE(1)"),
                                knowledge);
  }
}

// Law 20 — one fault-free round's values fill one id range. Every party
// observes the same time-(t−1) multiset, so the round's values are
// interned together: hash-consing gives each consistency class one fresh
// id, and the round's distinct ids are exactly [min, max]. The run
// kernel's counting sort and the blackboard operator's id-indexed memo
// rely on this. Covers both models, the all-⊥ input of round 1, random
// configurations up to n = 24, and a fresh random wiring per run.
TEST(RoundRangeProperty, FaultFreeRoundValuesFillOneIdRange) {
  const auto expect_one_range = [](std::vector<KnowledgeId> knowledge,
                                   const std::string& where) {
    std::sort(knowledge.begin(), knowledge.end());
    knowledge.erase(std::unique(knowledge.begin(), knowledge.end()),
                    knowledge.end());
    EXPECT_EQ(knowledge.back() - knowledge.front() + 1, knowledge.size())
        << where;
  };
  Xoshiro256StarStar rng(0x1d5a9e);
  KnowledgeStore store;
  RoundScratch scratch;
  for (int trial = 0; trial < 48; ++trial) {
    std::vector<int> loads;
    if (trial % 4 == 0) {
      loads.assign(16 + rng.below(9), 1);  // all-private, n in [16, 24]
    } else {
      loads.resize(2 + rng.below(6));
      for (int& load : loads) load = 1 + static_cast<int>(rng.below(4));
    }
    const SourceConfiguration config = SourceConfiguration::from_loads(loads);
    const int n = config.num_parties();
    for (const Model model : {Model::kBlackboard, Model::kMessagePassing}) {
      const PortAssignment ports = PortAssignment::random(n, rng);
      store.reset();
      std::vector<KnowledgeId> knowledge = initial_knowledge(store, n);
      for (int round = 1; round <= 12; ++round) {
        const std::string where = "trial " + std::to_string(trial) + " " +
                                  to_string(model) + " n=" +
                                  std::to_string(n) + " before round " +
                                  std::to_string(round);
        expect_one_range(knowledge, where);
        std::vector<bool> source_bits;
        for (int s = 0; s < config.num_sources(); ++s) {
          source_bits.push_back(rng.next_bit());
        }
        std::vector<bool> bits;
        for (int party = 0; party < n; ++party) {
          bits.push_back(source_bits[static_cast<std::size_t>(
              config.source_of(party))]);
        }
        if (model == Model::kBlackboard) {
          blackboard_round_inplace(store, knowledge, bits, scratch);
        } else {
          message_round_inplace(store, knowledge, bits, ports,
                                MessageVariant::kPortTagged, scratch);
        }
      }
      expect_one_range(knowledge, "trial " + std::to_string(trial) +
                                      " after the last round");
    }
  }
}

}  // namespace
}  // namespace rsb
