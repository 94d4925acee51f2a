// Tests for the parallel experiment engine: byte-identical RunStats across
// thread counts (the determinism contract of DESIGN.md's "Concurrency
// model"), run-index order of merged collector shards under threads > 1,
// multi-range sweeps equal to one sweep per range,
// RunStats::merge edge cases, the chunk knob, high-water aggregation
// across worker contexts, and the one-run context that every run of a
// worker reuses.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "algo/euclid.hpp"
#include "engine/engine.hpp"
#include "engine/run_context.hpp"
#include "reference_run.hpp"
#include "util/error.hpp"

namespace rsb {
namespace {

Experiment blackboard_spec(int n, std::uint64_t seeds) {
  return Experiment::blackboard(SourceConfiguration::all_private(n))
      .with_protocol("wait-for-singleton-LE")
      .with_task("leader-election")
      .with_rounds(300)
      .with_seeds(1, seeds);
}

Experiment message_passing_spec(std::uint64_t seeds) {
  return Experiment::message_passing(SourceConfiguration::from_loads({2, 3}))
      .with_port_seed(99)
      .with_protocol("wait-for-singleton-LE")
      .with_task("leader-election")
      .with_rounds(300)
      .with_seeds(5, seeds);
}

Experiment euclid_spec(std::uint64_t seeds);

// ------------------------------------------------- determinism contract

TEST(ParallelEngine, RunBatchIsByteIdenticalAcrossThreadCounts) {
  const auto spec = blackboard_spec(4, 64);
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  for (int threads : {2, 8}) {
    Engine parallel;
    parallel.set_parallel({threads, 0});
    const RunStats stats = parallel.run_batch(spec);
    EXPECT_EQ(stats, reference) << "threads=" << threads;
  }
}

TEST(ParallelEngine, RandomPerRunPortsAreScheduleIndependent) {
  // The per-run random wiring must be a function of the run index alone:
  // worker skip-ahead has to consume the port_seed stream draw-for-draw
  // as the serial sweep does.
  const auto spec = message_passing_spec(37);  // odd count: ragged chunks
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  for (int threads : {2, 8}) {
    Engine parallel;
    parallel.set_parallel({threads, 0});
    EXPECT_EQ(parallel.run_batch(spec), reference) << "threads=" << threads;
  }
}

TEST(ParallelEngine, ChunkKnobNeverChangesResults) {
  const auto spec = message_passing_spec(23);
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  for (std::uint64_t chunk : {1u, 3u, 7u, 100u}) {
    Engine parallel;
    parallel.set_parallel({4, chunk});
    EXPECT_EQ(parallel.run_batch(spec), reference) << "chunk=" << chunk;
  }
}

TEST(ParallelEngine, HardwareConcurrencyResolvesAndMatchesSerial) {
  const auto spec = blackboard_spec(4, 16);
  Engine serial;
  Engine parallel;
  parallel.set_parallel({0, 0});  // threads = 0 -> hardware concurrency
  EXPECT_EQ(parallel.run_batch(spec), serial.run_batch(spec));
}

TEST(ParallelEngine, SweepMatchesSerialPerSpec) {
  std::vector<Experiment> specs;
  for (int n = 3; n <= 5; ++n) specs.push_back(blackboard_spec(n, 12));
  Engine serial;
  Engine parallel;
  parallel.set_parallel({8, 0});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(parallel.run_batch(specs[i]), serial.run_batch(specs[i]))
        << "spec " << i;
  }
}

TEST(ParallelEngine, AgentBatchIsByteIdenticalAcrossThreadCounts) {
  const auto spec = euclid_spec(12);
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  EXPECT_GT(reference.terminated, 0u);
  for (int threads : {2, 8}) {
    Engine parallel;
    parallel.set_parallel({threads, 0});
    EXPECT_EQ(parallel.run_batch(spec), reference)
        << "threads=" << threads;
  }
}

TEST(ParallelEngine, SingleEngineGivesSameAnswerSerialThenParallel) {
  // Mode switches on one engine must not leak state between batches.
  const auto spec = message_passing_spec(20);
  Engine engine;
  const RunStats serial = engine.run_batch(spec);
  engine.set_parallel({4, 0});
  const RunStats parallel = engine.run_batch(spec);
  engine.set_parallel({1, 0});
  const RunStats serial_again = engine.run_batch(spec);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(serial_again, serial);
}

// ----------------------------------------------- run-by-run collection

TEST(ParallelEngine, CollectorShardsMergeInRunIndexOrderUnderThreads) {
  const auto spec = message_passing_spec(29);
  for (int threads : {2, 8}) {
    Engine engine;
    engine.set_parallel({threads, 3});
    std::vector<std::uint64_t> seeds_seen;
    testing::replay_runs(engine, spec, [&](const RunView& view,
                                           const ProtocolOutcome& outcome) {
      EXPECT_EQ(view.run_index, seeds_seen.size());
      ASSERT_NE(view.ports, nullptr);  // message passing: wiring available
      EXPECT_TRUE(outcome.terminated);
      seeds_seen.push_back(view.seed);
    });
    ASSERT_EQ(seeds_seen.size(), 29u);
    for (std::size_t i = 0; i < seeds_seen.size(); ++i) {
      EXPECT_EQ(seeds_seen[i], spec.seeds.first + i);
    }
  }
}

TEST(ParallelEngine, CollectorsSeeTheSharedWiringOfRunInvariantPolicies) {
  // Fixed/cyclic/adversarial policies use one wiring for the whole batch:
  // every run a parallel worker reports carries exactly that assignment.
  const PortAssignment wiring = PortAssignment::cyclic(5);
  auto spec =
      Experiment::message_passing(SourceConfiguration::from_loads({2, 3}))
          .with_ports(wiring)
          .with_protocol("wait-for-singleton-LE")
          .with_rounds(300)
          .with_seeds(1, 17);
  Engine engine;
  engine.set_parallel({4, 0});
  std::uint64_t seen = 0;
  testing::replay_runs(engine, spec,
                       [&](const RunView& view, const ProtocolOutcome&) {
                         ASSERT_NE(view.ports, nullptr);
                         EXPECT_EQ(*view.ports, wiring);
                         ++seen;
                       });
  EXPECT_EQ(seen, 17u);
}

TEST(ParallelEngine, CollectedOutcomesMatchSerialRunForRun) {
  const auto spec = blackboard_spec(4, 24);
  auto collect = [&spec](int threads) {
    Engine engine;
    engine.set_parallel({threads, 0});
    std::vector<int> rounds;
    testing::replay_runs(engine, spec,
                         [&](const RunView&, const ProtocolOutcome& outcome) {
                           rounds.push_back(outcome.rounds);
                         });
    return rounds;
  };
  const std::vector<int> reference = collect(1);
  EXPECT_EQ(collect(2), reference);
  EXPECT_EQ(collect(8), reference);
}

// ------------------------------------------------------ multi-range law

/// Each run a shard sees, as run_collect_ranges' law compares them.
struct RunRecord {
  std::uint64_t seed = 0;
  std::uint64_t run_index = 0;
  std::optional<PortAssignment> ports;
  testing::OutcomeSnapshot outcome;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

auto recording_collector() {
  return CombineCollectors(
      RunStats{},
      fold_collector(
          std::vector<RunRecord>{},
          [](std::vector<RunRecord>& shard, const RunView& view,
             const ProtocolOutcome& outcome) {
            shard.push_back({view.seed, view.run_index,
                             view.ports != nullptr
                                 ? std::optional<PortAssignment>(*view.ports)
                                 : std::nullopt,
                             testing::snapshot(outcome)});
          },
          [](std::vector<RunRecord>& merged, std::vector<RunRecord> shard) {
            merged.insert(merged.end(), shard.begin(), shard.end());
          }));
}

TEST(ParallelEngine, MultiRangeSweepEqualsOneRunCollectPerRange) {
  // run_collect_ranges sweeps each range as run_collect sweeps the spec
  // restricted to it: each range's port stream starts at its first seed,
  // and its runs are numbered from 0. The ranges come out of order, two
  // overlap, and three are shorter than every chunk hint but 1, so chunk
  // edges and range edges fall everywhere.
  const std::vector<SeedRange> ranges = {
      SeedRange::of(40, 13), SeedRange::of(3, 1), SeedRange::of(100, 29),
      SeedRange::of(7, 2), SeedRange::of(41, 5)};
  const std::vector<Experiment> specs = {
      blackboard_spec(4, 1), message_passing_spec(1),
      Experiment::message_passing(SourceConfiguration::from_loads({2, 3}))
          .with_ports(PortAssignment::cyclic(5))
          .with_protocol("wait-for-singleton-LE")
          .with_task("leader-election")
          .with_rounds(300)
          .with_seeds(1, 1)};
  ASSERT_EQ(specs[1].port_policy, PortPolicy::kRandomPerRun);
  ASSERT_EQ(specs[2].port_policy, PortPolicy::kFixed);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::vector<decltype(recording_collector())> expected;
    Engine reference;
    for (const SeedRange range : ranges) {
      Experiment sub = specs[s];
      sub.seeds = range;
      expected.push_back(reference.run_collect(sub, recording_collector()));
    }
    for (int threads : {1, 2, 4}) {
      for (std::uint64_t chunk : {0u, 1u, 7u, 1000u}) {
        Engine engine;
        engine.set_parallel({threads, chunk});
        const auto got =
            engine.run_collect_ranges(specs[s], ranges, recording_collector());
        ASSERT_EQ(got.size(), ranges.size());
        for (std::size_t k = 0; k < ranges.size(); ++k) {
          EXPECT_EQ(got[k].part<0>(), expected[k].part<0>())
              << "spec " << s << " threads " << threads << " chunk " << chunk
              << " range " << k;
          EXPECT_EQ(got[k].part<1>().state(), expected[k].part<1>().state())
              << "spec " << s << " threads " << threads << " chunk " << chunk
              << " range " << k;
        }
      }
    }
  }
}

TEST(ParallelEngine, MultiRangeSweepRejectsEmptyAndTooManyRanges) {
  const auto spec = blackboard_spec(3, 1);
  Engine engine;
  const std::vector<SeedRange> with_empty = {SeedRange::of(1, 4),
                                             SeedRange::of(9, 0)};
  EXPECT_THROW(engine.run_collect_ranges(spec, with_empty, RunStats{}),
               InvalidArgument);
  const std::vector<SeedRange> too_many(kMaxChunksPerBatch + 1,
                                        SeedRange::of(1, 1));
  EXPECT_THROW(engine.run_collect_ranges(spec, too_many, RunStats{}),
               InvalidArgument);
  EXPECT_TRUE(engine.run_collect_ranges(spec, {}, RunStats{}).empty());
}

// ------------------------------------------------------- RunStats::merge

RunStats stats_of(const Experiment& spec) {
  Engine engine;
  return engine.run_batch(spec);
}

TEST(RunStatsMerge, EmptyShardIsIdentityOnBothSides) {
  const RunStats populated = stats_of(blackboard_spec(4, 32));
  RunStats lhs = populated;
  lhs.merge(RunStats{});
  EXPECT_EQ(lhs, populated);
  RunStats rhs;
  rhs.merge(populated);
  EXPECT_EQ(rhs, populated);
}

TEST(RunStatsMerge, DisjointOutputKeysUnionAndSharedKeysAdd) {
  RunStats a;
  a.runs = 2;
  a.output_counts[0] = 3;
  a.output_counts[1] = 1;
  RunStats b;
  b.runs = 1;
  b.output_counts[1] = 2;
  b.output_counts[7] = 5;
  a.merge(b);
  EXPECT_EQ(a.runs, 3u);
  ASSERT_EQ(a.output_counts.size(), 3u);
  EXPECT_EQ(a.output_counts.at(0), 3u);
  EXPECT_EQ(a.output_counts.at(1), 3u);
  EXPECT_EQ(a.output_counts.at(7), 5u);
}

TEST(RunStatsMerge, HistogramTailRoundsSurviveMerging) {
  // A shard whose only termination lands far in the histogram tail must
  // neither be dropped nor re-bucketed, and mean_rounds must re-derive
  // from the merged sums.
  RunStats bulk;
  bulk.runs = 4;
  bulk.terminated = 4;
  bulk.total_rounds = 8;
  bulk.round_histogram[2] = 4;
  RunStats tail;
  tail.runs = 1;
  tail.terminated = 1;
  tail.total_rounds = 297;
  tail.round_histogram[297] = 1;
  bulk.merge(tail);
  EXPECT_EQ(bulk.terminated, 5u);
  EXPECT_EQ(bulk.round_histogram.at(2), 4u);
  EXPECT_EQ(bulk.round_histogram.at(297), 1u);
  EXPECT_DOUBLE_EQ(bulk.mean_rounds(), 305.0 / 5.0);
  std::uint64_t histogram_total = 0;
  for (const auto& [rounds, count] : bulk.round_histogram) {
    (void)rounds;
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, bulk.terminated);
}

TEST(RunStatsMerge, TaskCheckedPropagatesFromEitherSide) {
  RunStats with_task;
  with_task.runs = 1;
  with_task.task_checked = true;
  with_task.task_successes = 1;
  RunStats without_task;
  without_task.runs = 1;
  without_task.merge(with_task);
  EXPECT_TRUE(without_task.task_checked);
  EXPECT_DOUBLE_EQ(without_task.success_rate(), 0.5);
}

TEST(RunStatsMerge, MergeOrderIsImmaterial) {
  const RunStats a = stats_of(blackboard_spec(3, 16));
  const RunStats b = stats_of(blackboard_spec(4, 16));
  const RunStats c = stats_of(message_passing_spec(16));
  RunStats forward;
  forward.merge(a);
  forward.merge(b);
  forward.merge(c);
  RunStats backward;
  backward.merge(c);
  backward.merge(b);
  backward.merge(a);
  EXPECT_EQ(forward, backward);
}

// ---------------------------------------------------------- diagnostics

TEST(ParallelEngine, StoreHighWaterAggregatesAcrossWorkerContexts) {
  const auto spec = blackboard_spec(5, 32);
  Engine serial;
  serial.run_batch(spec);
  ASSERT_GT(serial.store_high_water(), 0u);  // meaningful in serial mode
  Engine parallel;
  parallel.set_parallel({4, 0});
  parallel.run_batch(spec);
  // Every run interns the same recursion depth per seed, so the max over
  // worker contexts equals the serial engine's max over the same runs.
  EXPECT_EQ(parallel.store_high_water(), serial.store_high_water());
}

TEST(ParallelEngine, AgentSpecValidationCatchesPortArityMismatch) {
  // Mismatched fixed wiring must be rejected upfront, not surface as a
  // sim::Network construction error inside a worker thread.
  Experiment spec = euclid_spec(4);
  spec.port_policy = PortPolicy::kFixed;
  spec.fixed_ports = PortAssignment::cyclic(4);  // config has 5 parties
  Engine engine;
  EXPECT_THROW(engine.run_batch(spec), InvalidArgument);
}

TEST(ParallelEngine, ConfigValidation) {
  Engine engine;
  EXPECT_THROW(engine.set_parallel({-1, 0}), InvalidArgument);
  engine.set_parallel({2, 5});
  EXPECT_EQ(engine.parallel().threads, 2);
  EXPECT_EQ(engine.parallel().chunk, 5u);
  Engine fluent;
  fluent.with_threads(8);
  EXPECT_EQ(fluent.parallel().threads, 8);
}

TEST(ParallelEngine, FreeStandingRunPreparedMatchesEngineRun) {
  // The state layer itself: any context can execute any (spec, seed),
  // reading the wiring in place from the provider's latest draw, and every
  // run equals both Engine::run and the independent per-run reference —
  // on both models.
  for (const Experiment& spec :
       {blackboard_spec(4, 8), message_passing_spec(8)}) {
    PortProvider ports(spec.model, spec.port_policy, spec.fixed_ports,
                       spec.config, spec.port_seed);
    Engine engine;
    RunContext ctx;
    for (std::uint64_t i = 0; i < spec.seeds.count; ++i) {
      const std::uint64_t seed = spec.seeds.first + i;
      const PortAssignment* assignment = ports.next();
      const auto want =
          testing::snapshot(testing::reference_run(spec, seed, assignment));
      EXPECT_EQ(testing::snapshot(run_prepared(ctx, spec, seed, assignment)),
                want)
          << "seed " << seed;
      EXPECT_EQ(testing::snapshot(engine.run(spec, seed)), want)
          << "seed " << seed;
    }
    EXPECT_GT(ctx.store_high_water, 0u);
  }
}

TEST(ParallelEngine, OneContextRunsMixedSpecsLikeFreshReferenceRuns) {
  // Every run of a worker reuses one RunContext, so its store, coins,
  // crash schedule, decision scratch and outcome must carry nothing from
  // the run before. One context runs a mixed list of specs — large n, a
  // run to its round cap, crashes, per-run random wirings, the class-split
  // rule — interleaved run by run, in order and then in reverse, and every
  // outcome equals the per-run reference for its (spec, seed, wiring).
  const std::vector<Experiment> specs = {
      blackboard_spec(64, 3),
      Experiment::blackboard(SourceConfiguration::from_loads({2, 3}))
          .with_protocol("wait-for-singleton-LE")
          .with_task("leader-election")
          .with_rounds(300)
          .with_seeds(1, 3),
      Experiment::blackboard(SourceConfiguration::all_private(6))
          .with_protocol("wait-for-singleton-LE")
          .with_task("t-resilient-leader-election(2)")
          .with_faults(sim::FaultPlan::crash_stop(2, 9))
          .with_rounds(300)
          .with_seeds(1, 3),
      message_passing_spec(3),
      Experiment::blackboard(SourceConfiguration::from_loads({2, 1, 1, 2}))
          .with_protocol("wait-for-class-split-LE(2)")
          .with_task("m-leader-election(2)")
          .with_rounds(300)
          .with_seeds(1, 3),
  };
  ASSERT_EQ(specs[3].port_policy, PortPolicy::kRandomPerRun);
  struct Job {
    const Experiment* spec;
    std::uint64_t seed;
    std::optional<PortAssignment> ports;
    testing::OutcomeSnapshot want;
  };
  std::vector<Job> jobs;
  std::vector<PortProvider> providers;
  for (const Experiment& spec : specs) {
    providers.emplace_back(spec.model, spec.port_policy, spec.fixed_ports,
                           spec.config, spec.port_seed);
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const Experiment& spec = specs[s];
      const std::uint64_t seed = spec.seeds.first + i;
      const PortAssignment* assignment = providers[s].next();
      jobs.push_back(
          {&spec, seed,
           assignment == nullptr ? std::nullopt
                                 : std::optional<PortAssignment>(*assignment),
           testing::snapshot(testing::reference_run(spec, seed, assignment))});
    }
  }
  RunContext ctx;
  const auto check = [&ctx](const Job& job, const char* pass) {
    const PortAssignment* ports = job.ports ? &*job.ports : nullptr;
    EXPECT_EQ(testing::snapshot(run_prepared(ctx, *job.spec, job.seed, ports)),
              job.want)
        << pass << " " << job.spec->protocol->name() << " n="
        << job.spec->config.num_parties() << " seed " << job.seed;
  };
  for (const Job& job : jobs) check(job, "forward");
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) check(*it, "reverse");
  // The list covers what it claims: the loads {2,3} blackboard never
  // decides, so it runs to its cap, and the crash spec's runs crash.
  EXPECT_FALSE(std::get<3>(jobs[1].want));
  EXPECT_FALSE(std::get<4>(jobs[2].want).empty());
}

Experiment euclid_spec(std::uint64_t seeds) {
  Experiment spec;
  spec.model = Model::kMessagePassing;
  spec.config = SourceConfiguration::from_loads({2, 3});
  spec.factory = [](int) {
    return std::make_unique<sim::EuclidLeaderElectionAgent>();
  };
  spec.task = SymmetricTask::leader_election(5);
  spec.port_policy = PortPolicy::kRandomPerRun;
  spec.port_seed = 77;
  spec.max_rounds = 3000;
  spec.seeds = SeedRange::of(1, seeds);
  return spec;
}

}  // namespace
}  // namespace rsb
