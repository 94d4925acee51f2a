// Tests for orbit-level run deduplication (engine/orbit.hpp): the
// load-bearing replication law — an orbit-deduped sweep's RunStats AND
// every collector row are byte-identical to the brute-force sweep — pinned
// across threads {1, 4} x batch {1, 16} on both safe groups (the full
// quotient for order-invariant protocols, blackboard multiset and
// message-passing wiring refinement; the literal form for id-order rules
// like wait-for-singleton-LE), crash-fault sweeps included; the identity
// path for asymmetric/ineligible specs (no table, counters stay zero); the
// hits + reps = runs accounting; the resumption law under dedup; and the
// memo-depth cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algo/agents.hpp"
#include "algo/euclid.hpp"
#include "engine/engine.hpp"
#include "engine/orbit.hpp"
#include "run_replay.hpp"
#include "sim/fault.hpp"

namespace rsb {
namespace {

// wait-for-singleton-LE elects the smallest *interned* singleton: an
// id-order rule, so the orbit table matches its runs literally — these
// specs exercise the literal (identity-relabeling) form.
Experiment clique_le(int n, std::uint64_t seeds) {
  return Experiment::blackboard(SourceConfiguration::all_private(n))
      .with_protocol("wait-for-singleton-LE")
      .with_task("leader-election")
      .with_rounds(300)
      .with_seeds(1, seeds);
}

Experiment message_passing_le(int n, std::uint64_t seeds) {
  return Experiment::message_passing(SourceConfiguration::all_private(n))
      .with_protocol("wait-for-singleton-LE")
      .with_task("leader-election")
      .with_rounds(300)
      .with_seeds(1, seeds);
}

// blackboard-unique-string-LE decides on randomness strings compared by
// content — knowledge_order_invariant(), so these specs exercise the full
// group quotient (S_n multiset on the blackboard, wiring refinement under
// message passing).
Experiment clique_unique_le(int n, std::uint64_t seeds) {
  return Experiment::blackboard(SourceConfiguration::all_private(n))
      .with_protocol("blackboard-unique-string-LE")
      .with_task("leader-election")
      .with_rounds(300)
      .with_seeds(1, seeds);
}

Experiment message_passing_unique_le(int n, std::uint64_t seeds) {
  return Experiment::message_passing(SourceConfiguration::all_private(n))
      .with_protocol("blackboard-unique-string-LE")
      .with_task("leader-election")
      .with_rounds(300)
      .with_seeds(1, seeds);
}

/// Every byte a collector can see from one run — outcome fields, the
/// candidate's crash schedule, and the full port wiring — flattened to a
/// row per run. Shards concatenate in merge order, so equal row vectors
/// mean the sweeps were observationally identical run for run.
struct RowCollector {
  std::vector<std::string> rows;
  void observe(const RunView& view, const ProtocolOutcome& outcome) {
    std::string row = std::to_string(view.seed);
    row += '|';
    row += outcome.terminated ? 'T' : 'F';
    row += std::to_string(outcome.rounds);
    for (const std::int64_t v : outcome.outputs) {
      row += ',';
      row += std::to_string(v);
    }
    for (const int r : outcome.decision_round) {
      row += ';';
      row += std::to_string(r);
    }
    for (const int c : outcome.crash_round) {
      row += '!';
      row += std::to_string(c);
    }
    if (view.ports != nullptr) {
      const int n = view.ports->num_parties();
      for (int p = 0; p < n; ++p) {
        row += '/';
        for (int port = 1; port < n; ++port) {
          row += std::to_string(view.ports->neighbor(p, port));
          row += '.';
        }
      }
    }
    rows.push_back(std::move(row));
  }
  void merge(RowCollector&& other) {
    for (std::string& row : other.rows) rows.push_back(std::move(row));
  }
};

RowCollector sweep_rows(const Experiment& spec, int threads, int batch,
                        bool orbit) {
  Engine engine;
  engine.set_parallel({threads, 0, batch, orbit});
  return engine.run_collect(spec, RowCollector{});
}

void expect_byte_identical_sweeps(const Experiment& spec) {
  const RowCollector reference = sweep_rows(spec, 1, 1, false);
  ASSERT_EQ(reference.rows.size(), spec.seeds.count);
  Engine brute;
  const RunStats brute_stats = brute.run_batch(spec);
  for (int threads : {1, 4}) {
    for (int batch : {1, 16}) {
      const RowCollector deduped = sweep_rows(spec, threads, batch, true);
      EXPECT_EQ(deduped.rows, reference.rows)
          << "threads=" << threads << " batch=" << batch;
      Engine engine;
      engine.set_parallel({threads, 0, batch, true});
      EXPECT_EQ(engine.run_batch(spec), brute_stats)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

// ------------------------------------ replication law, full quotient

TEST(OrbitDedup, BlackboardCliqueSweepIsByteIdentical) {
  expect_byte_identical_sweeps(clique_unique_le(6, 512));
}

TEST(OrbitDedup, BlackboardSharedSourcesSweepIsByteIdentical) {
  // Mixed loads: parties sharing a source have identical columns forever,
  // so every prefix has heavy multiset ties — the tie-is-harmless case.
  const auto spec =
      Experiment::blackboard(SourceConfiguration::from_loads({2, 3}))
          .with_protocol("blackboard-unique-string-LE")
          .with_task("leader-election")
          .with_rounds(300)
          .with_seeds(7, 256);
  expect_byte_identical_sweeps(spec);
}

TEST(OrbitDedup, MessagePassingSweepIsByteIdentical) {
  expect_byte_identical_sweeps(message_passing_unique_le(4, 256));
}

TEST(OrbitDedup, BlackboardCrashFaultSweepIsByteIdentical) {
  const auto spec =
      clique_unique_le(5, 256).with_faults(sim::FaultPlan::crash_stop(2, 4));
  expect_byte_identical_sweeps(spec);
}

TEST(OrbitDedup, MessagePassingCrashFaultSweepIsByteIdentical) {
  const auto spec = message_passing_unique_le(4, 192).with_faults(
      sim::FaultPlan::crash_stop(1, 3));
  expect_byte_identical_sweeps(spec);
}

TEST(OrbitDedup, TwoPartyMessagePassingBailsToRawBytesSoundly) {
  // n = 2 under random wiring is the refinement bail-out: configurations
  // with equal columns stay symmetric, so only literal repeats match —
  // missed hits, never a wrong replication.
  expect_byte_identical_sweeps(message_passing_unique_le(2, 128));
}

// ------------------------------------- replication law, literal form

TEST(OrbitDedup, IdOrderProtocolBlackboardSweepIsByteIdentical) {
  // wait-for-singleton-LE is not id-order invariant: among several
  // singleton classes the winner is the one first interned in party-index
  // order, so relabeling a run can crown a different leader. The table
  // must match these runs literally — and still be byte-exact.
  expect_byte_identical_sweeps(clique_le(6, 512));
}

TEST(OrbitDedup, IdOrderProtocolMessagePassingSweepIsByteIdentical) {
  expect_byte_identical_sweeps(message_passing_le(4, 256));
}

TEST(OrbitDedup, IdOrderProtocolCrashFaultSweepIsByteIdentical) {
  const auto spec =
      clique_le(5, 256).with_faults(sim::FaultPlan::crash_stop(2, 4));
  expect_byte_identical_sweeps(spec);
}

TEST(OrbitDedup, SafeGroupDetectionWidensTheQuotient) {
  // Same ensemble geometry, two safe groups: the content-only protocol
  // dedups across the full S_n quotient, the id-order protocol only across
  // literal repeats — strictly fewer hits (serial split is deterministic).
  auto hits_for = [](const Experiment& spec) {
    Engine engine;
    engine.set_parallel({1, 0, 1, true});
    engine.run_batch(spec);
    return engine.orbit_hits();
  };
  const std::uint64_t quotient_hits = hits_for(clique_unique_le(6, 512));
  const std::uint64_t literal_hits = hits_for(clique_le(6, 512));
  EXPECT_GT(quotient_hits, literal_hits);
  EXPECT_GT(literal_hits, 0u);
}

TEST(OrbitDedup, RunByRunRowsAreByteIdenticalAcrossThreadsAndBatch) {
  // Runs collected one by one and read back in run-index order: the
  // replicated outcomes, wirings and crash columns of a deduped sweep are
  // the brute-force sweep's bytes under every threads × batch split.
  const auto spec = clique_le(5, 200);
  auto observe = [&spec](int threads, int batch, bool orbit) {
    Engine engine;
    engine.set_parallel({threads, 0, batch, orbit});
    RowCollector rows;
    testing::replay_runs(engine, spec, [&](const RunView& view,
                                           const ProtocolOutcome& outcome) {
      rows.observe(view, outcome);
    });
    return rows.rows;
  };
  const std::vector<std::string> reference = observe(1, 1, false);
  for (int threads : {1, 4}) {
    for (int batch : {1, 16}) {
      EXPECT_EQ(observe(threads, batch, true), reference)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(OrbitDedup, ResumptionLawHoldsUnderDedup) {
  // Splitting a sweep into resumed sub-ranges and merging equals the
  // one-shot sweep: each drive scopes its own memo table, so dedup never
  // couples the installments.
  const auto spec = clique_le(6, 156);
  Engine engine;
  engine.set_parallel({1, 0, 1, true});
  const RowCollector whole =
      engine.run_collect(spec, RowCollector{});
  RowCollector merged = engine.run_collect_range(
      spec, SeedRange::of(1, 100), RowCollector{});
  merged.merge(engine.run_collect_range(spec, SeedRange::of(101, 56),
                                        RowCollector{}));
  EXPECT_EQ(merged.rows, whole.rows);
}

// ------------------------------------------------------- accounting

TEST(OrbitDedup, HitsPlusRepsEqualsRunsAndOrbitsAreNontrivial) {
  // Serial engine: the hit/rep split is deterministic, and on a clique at
  // n = 6 the early-round orbits are coarse enough that a 400-seed sweep
  // must replicate a substantial fraction.
  const auto spec = clique_unique_le(6, 400);
  Engine engine;
  engine.set_parallel({1, 0, 1, true});
  engine.run_batch(spec);
  EXPECT_EQ(engine.orbit_hits() + engine.orbit_reps(), 400u);
  EXPECT_GT(engine.orbit_hits(), 0u);
  EXPECT_LT(engine.orbit_reps(), 400u);
}

TEST(OrbitDedup, CountersSumAcrossThreadsAndBatches) {
  const auto spec = clique_le(6, 256);
  for (int threads : {1, 4}) {
    for (int batch : {1, 16}) {
      Engine engine;
      engine.set_parallel({threads, 0, batch, true});
      engine.run_batch(spec);
      // The split is timing-dependent under threads > 1; the sum is not.
      EXPECT_EQ(engine.orbit_hits() + engine.orbit_reps(), 256u)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(OrbitDedup, CountersAccumulateAcrossSweeps) {
  const auto spec = clique_le(5, 64);
  Engine engine;
  engine.set_parallel({1, 0, 1, true});
  engine.run_batch(spec);
  engine.run_batch(spec);
  EXPECT_EQ(engine.orbit_hits() + engine.orbit_reps(), 128u);
}

// ------------------------------------------------------ identity path

void expect_identity_path(const Experiment& spec) {
  Engine brute;
  const RunStats reference = brute.run_batch(spec);
  Engine engine;
  engine.set_parallel({1, 0, 1, true});
  EXPECT_EQ(engine.run_batch(spec), reference);
  // Ineligible specs never construct a table: both counters stay zero.
  EXPECT_EQ(engine.orbit_hits(), 0u);
  EXPECT_EQ(engine.orbit_reps(), 0u);
}

TEST(OrbitIdentityPath, FixedPortsPinPartyIdentities) {
  const auto spec =
      Experiment::message_passing(SourceConfiguration::all_private(4))
          .with_ports(PortAssignment::cyclic(4))
          .with_protocol("wait-for-singleton-LE")
          .with_task("leader-election")
          .with_rounds(300)
          .with_seeds(1, 64);
  ASSERT_EQ(spec.port_policy, PortPolicy::kFixed);
  ASSERT_FALSE(OrbitTable::eligible(spec));
  expect_identity_path(spec);
}

TEST(OrbitIdentityPath, CyclicAndAdversarialPoliciesAreIneligible) {
  for (PortPolicy policy : {PortPolicy::kCyclic, PortPolicy::kAdversarial}) {
    const auto spec =
        Experiment::message_passing(SourceConfiguration::from_loads({2, 2}))
            .with_port_policy(policy)
            .with_protocol("wait-for-singleton-LE")
            .with_task("leader-election")
            .with_rounds(300)
            .with_seeds(1, 48);
    ASSERT_FALSE(OrbitTable::eligible(spec));
    expect_identity_path(spec);
  }
}

TEST(OrbitIdentityPath, AgentBackendIsIneligible) {
  // Agent runs consume 64-bit words per round and their factories index
  // parties — the orbit pass stays out of their way entirely.
  Experiment spec;
  spec.model = Model::kMessagePassing;
  spec.config = SourceConfiguration::from_loads({2, 3});
  spec.factory = [](int) {
    return std::make_unique<sim::EuclidLeaderElectionAgent>();
  };
  spec.task = SymmetricTask::leader_election(5);
  spec.port_policy = PortPolicy::kRandomPerRun;
  spec.max_rounds = 3000;
  spec.seeds = SeedRange::of(1, 24);
  ASSERT_FALSE(OrbitTable::eligible(spec));
  expect_identity_path(spec);
}

TEST(OrbitIdentityPath, TaggedPartySchedulersAreIneligible) {
  // A delay adversary tags parties by index; eligible() keys off the
  // scheduler spec directly (belt and braces over validate()'s own
  // knowledge-backend restriction). Gossip tolerates delayed delivery —
  // its decision ranges over the word multiset, whenever it arrives.
  const auto spec =
      Experiment::message_passing(SourceConfiguration::all_private(4))
          .with_agents([](int) {
            return std::make_unique<sim::GossipLeaderElectionAgent>();
          })
          .with_task("leader-election")
          .with_rounds(40)
          .with_seeds(1, 16)
          .with_scheduler(sim::SchedulerSpec::random_delay(2));
  ASSERT_FALSE(OrbitTable::eligible(spec));
  expect_identity_path(spec);
}

TEST(OrbitIdentityPath, KnobOffNeverBuildsATable) {
  const auto spec = clique_le(5, 32);
  ASSERT_TRUE(OrbitTable::eligible(spec));
  Engine engine;  // default ParallelConfig: orbit off
  engine.run_batch(spec);
  EXPECT_EQ(engine.orbit_hits(), 0u);
  EXPECT_EQ(engine.orbit_reps(), 0u);
}

// ------------------------------------------------------ memo-depth cap

TEST(OrbitDedup, RunsPastTheMemoCapExecuteUnmemoized) {
  // One shared source: every party's column ties forever, no singleton
  // ever appears, and each run consumes max_rounds = 70 > kMaxMemoRounds
  // rounds — so nothing is memoizable, every run executes as its own
  // representative, and results still match brute force byte for byte.
  const auto spec =
      Experiment::blackboard(SourceConfiguration::from_loads({3}))
          .with_protocol("wait-for-singleton-LE")
          .with_rounds(70)
          .with_seeds(1, 32);
  expect_byte_identical_sweeps(spec);
  Engine engine;
  engine.set_parallel({1, 0, 1, true});
  engine.run_batch(spec);
  EXPECT_EQ(engine.orbit_hits(), 0u);
  EXPECT_EQ(engine.orbit_reps(), 32u);
}

TEST(OrbitDedup, ShortBudgetNonTerminatingRunsDedupSoundly) {
  // max_rounds = 2 leaves most runs undecided; full-budget trajectories
  // are still prefix-isomorphic, so they memoize and replicate at the
  // budget level.
  const auto spec = clique_le(4, 200).with_rounds(2);
  expect_byte_identical_sweeps(spec);
  Engine engine;
  engine.set_parallel({1, 0, 1, true});
  engine.run_batch(spec);
  EXPECT_GT(engine.orbit_hits(), 0u);
}

}  // namespace
}  // namespace rsb
