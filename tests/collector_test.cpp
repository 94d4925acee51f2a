// Tests for the collector layer (engine/collector.hpp): the Collector
// concept, CombineCollectors / FoldCollector composition, and the
// property the whole design hangs on — any collector composition produces
// byte-identical results at 1, 2, and hardware-concurrency thread counts,
// because worker shards observe disjoint run sets and merge in
// worker-index order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "algo/euclid.hpp"
#include "engine/engine.hpp"
#include "run_replay.hpp"
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

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// The concept itself: the built-ins and the bench-style custom shapes
// must satisfy it; non-mergeable types must not.
struct NotACollector {
  void observe(const RunView&, const ProtocolOutcome&) {}
};
static_assert(Collector<RunStats>);
static_assert(Collector<CombineCollectors<RunStats, RunStats>>);
static_assert(!Collector<NotACollector>);
static_assert(!Collector<int>);

/// A custom collector with merge-order-sensitive bookkeeping: per-seed
/// round counts in an ordered map plus a seed-weighted checksum. Equal
/// results across thread counts require both the shard dealing and the
/// worker-index merge order to be deterministic.
struct RoundsBySeed {
  std::map<std::uint64_t, int> rounds;
  std::uint64_t checksum = 0;

  void observe(const RunView& view, const ProtocolOutcome& outcome) {
    rounds[view.seed] = outcome.rounds;
    checksum += view.seed * static_cast<std::uint64_t>(outcome.rounds + 1) +
                view.run_index;
  }
  void merge(RoundsBySeed&& other) {
    for (const auto& [seed, r] : other.rounds) rounds[seed] = r;
    checksum += other.checksum;
  }
  friend bool operator==(const RoundsBySeed&, const RoundsBySeed&) = default;
};
static_assert(Collector<RoundsBySeed>);

// ---------------------------------------------------------- run_collect

TEST(Collector, RunStatsCollectorMatchesRunBatch) {
  const auto spec = blackboard_spec(4, 48);
  Engine engine;
  const RunStats via_batch = engine.run_batch(spec);
  const RunStats via_collect = engine.run_collect(spec, RunStats{});
  EXPECT_EQ(via_collect, via_batch);
}

TEST(Collector, SpecReachesCollectorsThroughRunView) {
  const auto spec = blackboard_spec(3, 8);
  Engine engine;
  auto seen = engine.run_collect(
      spec, fold_collector(
                std::uint64_t{0},
                [&](std::uint64_t& count, const RunView& view,
                    const ProtocolOutcome&) {
                  if (view.experiment != nullptr &&
                      view.experiment->task.has_value()) {
                    ++count;
                  }
                },
                [](std::uint64_t& count, std::uint64_t other) {
                  count += other;
                }));
  EXPECT_EQ(seen.state(), 8u);
}

TEST(Collector, AgentBackendRunsThroughCollectors) {
  Experiment spec =
      Experiment::message_passing(SourceConfiguration::from_loads({2, 3}))
          .with_agents(
              [](int) { return std::make_unique<sim::EuclidLeaderElectionAgent>(); })
          .with_task("leader-election")
          .with_port_seed(77)
          .with_rounds(3000)
          .with_seeds(1, 8);
  Engine engine;
  const RunStats stats = engine.run_collect(spec, RunStats{});
  EXPECT_EQ(stats.runs, 8u);
  EXPECT_GT(stats.terminated, 0u);
  EXPECT_TRUE(stats.task_checked);
}

// ------------------------------------------- byte-identical across pools

/// The satellite property test: an arbitrary composition of collectors —
/// built-in stats, an order-sensitive map collector, and a fold — must be
/// byte-identical at 1, 2, and hardware thread counts, on both backends
/// and for several chunk knobs.
TEST(Collector, CompositionByteIdenticalAcrossThreadCounts) {
  const std::vector<Experiment> specs = {blackboard_spec(4, 37),
                                         message_passing_spec(41)};
  for (const Experiment& spec : specs) {
    auto proto = CombineCollectors(
        RunStats{}, RoundsBySeed{},
        fold_collector(
            std::uint64_t{0},
            [](std::uint64_t& leaders, const RunView&,
               const ProtocolOutcome& outcome) {
              for (std::int64_t v : outcome.outputs) leaders += v == 1;
            },
            [](std::uint64_t& leaders, std::uint64_t other) {
              leaders += other;
            }));
    Engine serial;
    const auto reference = serial.run_collect(spec, proto);
    for (int threads : {2, hardware_threads()}) {
      for (std::uint64_t chunk : {std::uint64_t{0}, std::uint64_t{3}}) {
        Engine parallel;
        parallel.set_parallel({threads, chunk});
        const auto result = parallel.run_collect(spec, proto);
        EXPECT_EQ(result.part<0>(), reference.part<0>())
            << spec.to_string() << " threads=" << threads
            << " chunk=" << chunk;
        EXPECT_EQ(result.part<1>(), reference.part<1>())
            << spec.to_string() << " threads=" << threads
            << " chunk=" << chunk;
        EXPECT_EQ(result.part<2>().state(), reference.part<2>().state())
            << spec.to_string() << " threads=" << threads
            << " chunk=" << chunk;
      }
    }
  }
}

TEST(Collector, AgentBatchCompositionByteIdenticalAcrossThreadCounts) {
  Experiment spec =
      Experiment::message_passing(SourceConfiguration::from_loads({2, 3}))
          .with_agents(
              [](int) { return std::make_unique<sim::EuclidLeaderElectionAgent>(); })
          .with_task("leader-election")
          .with_port_seed(77)
          .with_rounds(3000)
          .with_seeds(1, 12);
  auto proto = CombineCollectors(RunStats{}, RoundsBySeed{});
  Engine serial;
  const auto reference = serial.run_collect(spec, proto);
  EXPECT_GT(reference.part<0>().terminated, 0u);
  for (int threads : {2, hardware_threads()}) {
    Engine parallel;
    parallel.with_threads(threads);
    const auto result = parallel.run_collect(spec, proto);
    EXPECT_EQ(result.part<0>(), reference.part<0>()) << "threads=" << threads;
    EXPECT_EQ(result.part<1>(), reference.part<1>()) << "threads=" << threads;
  }
}

// ------------------------------------------------------------- semantics

TEST(Collector, PrototypeIsMergeIdentity) {
  // run_collect copies the prototype per worker; a nonempty prototype
  // would be double-counted by design, so the contract demands an empty
  // one — verify the well-behaved case folds exactly the batch.
  const auto spec = blackboard_spec(4, 16);
  Engine engine;
  engine.with_threads(4);
  const RunStats stats = engine.run_collect(spec, RunStats{});
  EXPECT_EQ(stats.runs, 16u);
}

TEST(Collector, CombineMergesPartWise) {
  CombineCollectors<RunStats, RunStats> a;
  CombineCollectors<RunStats, RunStats> b;
  ProtocolOutcome outcome;
  outcome.terminated = true;
  outcome.rounds = 3;
  outcome.outputs = {1};
  outcome.decision_round = {3};
  RunView view;
  a.observe(view, outcome);
  b.observe(view, outcome);
  b.observe(view, outcome);
  a.merge(std::move(b));
  EXPECT_EQ(a.part<0>().runs, 3u);
  EXPECT_EQ(a.part<1>().runs, 3u);
  EXPECT_EQ(a.part<0>().round_histogram.at(3), 3u);
}

TEST(Collector, FoldCollectorStateAccess) {
  auto fold = fold_collector(
      std::vector<int>{},
      [](std::vector<int>& rounds, const RunView&,
         const ProtocolOutcome& outcome) { rounds.push_back(outcome.rounds); },
      [](std::vector<int>& rounds, std::vector<int> other) {
        rounds.insert(rounds.end(), other.begin(), other.end());
      });
  const auto spec = blackboard_spec(4, 10);
  Engine engine;
  auto result = engine.run_collect(spec, fold);
  ASSERT_EQ(result.state().size(), 10u);
  // Serial engine: observation order is run order, so the fold's vector
  // matches the runs executed one by one.
  std::vector<int> one_by_one;
  Engine again;
  for (std::uint64_t i = 0; i < spec.seeds.count; ++i) {
    one_by_one.push_back(again.run(spec, spec.seeds.first + i).rounds);
  }
  EXPECT_EQ(result.state(), one_by_one);
}

// ------------------------------------------- run-by-run collection

TEST(Collector, CollectedRunsMergeInRunIndexOrderAcrossChunks) {
  // 29 runs at chunk 3 → 10 chunk shards with a ragged tail, claimed by
  // stealing workers in any order. Every run must still be collected
  // exactly once, in run-index order once the shards merge, with stats
  // identical to serial.
  const auto spec = message_passing_spec(29);
  Engine serial;
  const RunStats reference = serial.run_batch(spec);
  for (int threads : {2, hardware_threads()}) {
    Engine engine;
    engine.set_parallel({threads, 3});
    std::vector<std::uint64_t> seeds_seen;
    const RunStats stats = testing::replay_runs(
        engine, spec, [&](const RunView& view, const ProtocolOutcome&) {
          EXPECT_EQ(view.run_index, seeds_seen.size());
          ASSERT_NE(view.ports, nullptr);
          seeds_seen.push_back(view.seed);
        });
    ASSERT_EQ(seeds_seen.size(), 29u);
    for (std::size_t i = 0; i < seeds_seen.size(); ++i) {
      EXPECT_EQ(seeds_seen[i], spec.seeds.first + i);
    }
    EXPECT_EQ(stats, reference) << "threads=" << threads;
  }
}

// ------------------------------------------------------- unified spec

TEST(Experiment, BackendIsExclusive) {
  Experiment neither = Experiment::blackboard(
      SourceConfiguration::all_private(3));
  EXPECT_THROW(neither.backend(), InvalidArgument);
  EXPECT_THROW(neither.validate(), InvalidArgument);

  Experiment both = Experiment::blackboard(
      SourceConfiguration::all_private(3));
  both.with_protocol("wait-for-singleton-LE");
  both.with_agents([](int) {
    return std::make_unique<sim::EuclidLeaderElectionAgent>();
  });
  EXPECT_THROW(both.validate(), InvalidArgument);

  Experiment protocol_backed =
      Experiment::blackboard(SourceConfiguration::all_private(3))
          .with_protocol("wait-for-singleton-LE");
  EXPECT_EQ(protocol_backed.backend(), Experiment::Backend::kProtocol);

  Experiment agent_backed =
      Experiment::message_passing(SourceConfiguration::from_loads({2, 3}))
          .with_agents([](int) {
            return std::make_unique<sim::EuclidLeaderElectionAgent>();
          });
  EXPECT_EQ(agent_backed.backend(), Experiment::Backend::kAgents);
  EXPECT_NE(agent_backed.to_string().find("<agents>"), std::string::npos);
}

}  // namespace
}  // namespace rsb
