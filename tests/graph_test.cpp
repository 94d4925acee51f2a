// Graph topology subsystem (src/graph/): generator determinism and
// validity, canonical port numbering, per-edge delivery exactness against
// a dense reference, graph-task refinements (independence, properness,
// domination — crash-aware), and end-to-end locality agents solving their
// tasks on sparse instances through the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "graph/agents.hpp"
#include "graph/graph_task.hpp"
#include "graph/topology.hpp"
#include "sim/network.hpp"
#include "util/error.hpp"

namespace rsb::graph {
namespace {

// ------------------------------------------------------------ generators

TEST(Topology, StructuredGeneratorsHaveTheRightShape) {
  const Topology ring = Topology::ring(6);
  EXPECT_EQ(ring.num_parties(), 6);
  EXPECT_EQ(ring.num_edges(), 6);
  EXPECT_EQ(ring.max_degree(), 2);
  EXPECT_TRUE(ring.has_edge(0, 5));
  EXPECT_TRUE(ring.has_edge(2, 3));
  EXPECT_FALSE(ring.has_edge(0, 3));

  const Topology path = Topology::path(5);
  EXPECT_EQ(path.num_edges(), 4);
  EXPECT_EQ(path.degree(0), 1);
  EXPECT_EQ(path.degree(2), 2);

  const Topology tree = Topology::tree(7);
  EXPECT_EQ(tree.num_edges(), 6);
  EXPECT_TRUE(tree.has_edge(0, 1));
  EXPECT_TRUE(tree.has_edge(1, 3));
  EXPECT_TRUE(tree.has_edge(2, 6));
  EXPECT_EQ(tree.degree(0), 2);
  EXPECT_EQ(tree.degree(3), 1);

  const Topology clique = Topology::clique(5);
  EXPECT_EQ(clique.num_edges(), 10);
  EXPECT_TRUE(clique.is_clique());
  EXPECT_FALSE(ring.is_clique());
}

TEST(Topology, DRegularIsRegularSimpleAndSeedDeterministic) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const Topology a = Topology::d_regular(16, 3, seed);
    const Topology b = Topology::d_regular(16, 3, seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(a.num_edges(), 16 * 3 / 2);
    for (int v = 0; v < 16; ++v) {
      EXPECT_EQ(a.degree(v), 3) << "vertex " << v;
      // Simple: sorted neighbor lists hold no duplicates and no self.
      const std::span<const int> around = a.neighbors(v);
      EXPECT_TRUE(std::adjacent_find(around.begin(), around.end()) ==
                  around.end());
      EXPECT_TRUE(std::find(around.begin(), around.end(), v) == around.end());
    }
  }
  EXPECT_NE(Topology::d_regular(16, 3, 1), Topology::d_regular(16, 3, 2));
  EXPECT_THROW(Topology::d_regular(5, 3, 1), InvalidArgument);  // n·d odd
  EXPECT_THROW(Topology::d_regular(4, 4, 1), InvalidArgument);  // d >= n
}

TEST(Topology, ErdosRenyiAndPowerLawAreSeedDeterministic) {
  EXPECT_EQ(Topology::erdos_renyi(24, 4, 9), Topology::erdos_renyi(24, 4, 9));
  EXPECT_NE(Topology::erdos_renyi(24, 4, 9), Topology::erdos_renyi(24, 4, 10));
  const Topology ba = Topology::power_law(32, 2, 5);
  EXPECT_EQ(ba, Topology::power_law(32, 2, 5));
  // m+1 seed clique then m edges per remaining vertex; attachment keeps
  // targets distinct so the count is exact.
  EXPECT_EQ(ba.num_edges(), 3 + (32 - 3) * 2);
  // Preferential attachment concentrates degree: some hub exceeds m.
  EXPECT_GT(ba.max_degree(), 2);
}

TEST(TopologyRegistry, SpecsResolveAndDescribe) {
  const TopologyRegistry& registry = TopologyRegistry::global();
  EXPECT_TRUE(registry.contains("ring"));
  EXPECT_TRUE(registry.contains("d-regular"));
  EXPECT_FALSE(registry.contains("torus"));
  const Topology ring = registry.make("ring", 8, 0);
  EXPECT_EQ(ring.kind(), TopologyKind::kRing);
  EXPECT_EQ(ring.name(), "ring");
  const Topology reg = registry.make("d-regular(3)", 8, 11);
  EXPECT_EQ(reg.name(), "d-regular(3)");
  EXPECT_THROW(registry.make("torus", 8, 0), UnknownName);
  EXPECT_THROW(registry.make("d-regular", 8, 0), InvalidArgument);
  // Other spellings of valid specs are named rejects, never a second
  // spelling (and spec hash) of one topology.
  EXPECT_THROW(registry.make("ring()", 8, 0), InvalidArgument);
  EXPECT_THROW(registry.make("d-regular(03)", 8, 0), InvalidArgument);
  EXPECT_THROW(registry.make("d-regular(+3)", 8, 0), InvalidArgument);
  EXPECT_THROW(registry.make("erdos-renyi(-0)", 8, 0), InvalidArgument);
  EXPECT_TRUE(is_randomized_topology("d-regular(3)"));
  EXPECT_TRUE(is_randomized_topology("power-law(2)"));
  EXPECT_FALSE(is_randomized_topology("ring"));
  EXPECT_FALSE(is_randomized_topology("not-a-generator"));
  EXPECT_FALSE(registry.describe().empty());
}

// ----------------------------------------------------- port numbering

TEST(Topology, CanonicalPortsAreSortedNeighborsAndInvert) {
  const Topology graph = Topology::power_law(20, 2, 3);
  for (int v = 0; v < graph.num_parties(); ++v) {
    const std::span<const int> around = graph.neighbors(v);
    ASSERT_TRUE(std::is_sorted(around.begin(), around.end()));
    for (int k = 1; k <= graph.degree(v); ++k) {
      const int u = graph.neighbor(v, k);
      EXPECT_EQ(u, around[static_cast<std::size_t>(k - 1)]);
      EXPECT_EQ(graph.port_of(v, u), k);
      EXPECT_TRUE(graph.has_edge(v, u));
    }
  }
  EXPECT_THROW(graph.neighbor(0, 0), InvalidArgument);
  EXPECT_THROW(graph.neighbor(0, graph.degree(0) + 1), InvalidArgument);
}

// ------------------------------------------------- per-edge delivery

/// Records everything it receives; sends one self-identifying payload per
/// round on every port. The factory injects the party index purely as a
/// test-side label (the simulator stays anonymous).
class RecordingAgent final : public sim::Agent {
 public:
  RecordingAgent(int id, std::vector<std::string>* log, int rounds)
      : id_(id), log_(log), rounds_(rounds) {}

  void begin(const Init& init) override { init_ = init; }

  void send_phase(int round, std::uint64_t, sim::Outbox& out) override {
    if (init_.num_ports > 0) {
      out.send_all("m" + std::to_string(id_) + "r" + std::to_string(round));
    }
    if (round >= rounds_) decide(id_);
  }

  void receive_phase(int round, const sim::Delivery& delivery) override {
    for (const sim::PortMessage& message : delivery.by_port) {
      log_->push_back("p" + std::to_string(id_) + " r" +
                      std::to_string(round) + " port" +
                      std::to_string(message.port) + " " +
                      std::string(delivery.text(message)));
    }
  }

 private:
  int id_;
  std::vector<std::string>* log_;
  int rounds_;
  Init init_;
};

// Per-edge routing is exact: under a Topology, party p receives exactly
// one message per neighbor per round, on the canonical port of that
// neighbor, carrying that neighbor's payload — the dense reference
// computed straight from the adjacency.
TEST(Network, TopologyDeliveryMatchesDenseReference) {
  const auto graph =
      std::make_shared<const Topology>(Topology::power_law(12, 2, 17));
  const int rounds = 3;
  std::vector<std::string> log;
  const auto config = SourceConfiguration::all_private(12);
  sim::Network net(
      Model::kMessagePassing, config, /*seed=*/99, std::nullopt,
      [&log, rounds](int party) {
        return std::make_unique<RecordingAgent>(party, &log, rounds);
      },
      sim::SchedulerSpec{}, {}, nullptr, graph.get());
  net.run(rounds + 1);

  std::vector<std::string> expected;
  for (int r = 1; r <= rounds; ++r) {
    for (int p = 0; p < graph->num_parties(); ++p) {
      for (const int q : graph->neighbors(p)) {
        expected.push_back("p" + std::to_string(p) + " r" + std::to_string(r) +
                           " port" + std::to_string(graph->port_of(p, q)) +
                           " m" + std::to_string(q) + "r" + std::to_string(r));
      }
    }
  }
  std::sort(log.begin(), log.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(log, expected);
  // O(edges) accounting: every broadcast round routes exactly 2|E|.
  EXPECT_EQ(net.messages_routed(),
            static_cast<std::uint64_t>(2 * graph->num_edges() * rounds));
}

// A clique Topology and the explicit sorted-neighbor PortAssignment are
// the same wiring: identical delivery logs byte for byte.
TEST(Network, CliqueTopologyMatchesExplicitPortAssignment) {
  const int n = 6;
  const int rounds = 3;
  const auto clique = std::make_shared<const Topology>(Topology::clique(n));
  std::vector<std::vector<int>> sorted_neighbors(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j != i) sorted_neighbors[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  std::vector<std::string> via_topology;
  std::vector<std::string> via_ports;
  const auto config = SourceConfiguration::all_private(n);
  const auto factory_into = [rounds](std::vector<std::string>* log) {
    return [log, rounds](int party) {
      return std::make_unique<RecordingAgent>(party, log, rounds);
    };
  };
  sim::Network with_topology(Model::kMessagePassing, config, 7, std::nullopt,
                             factory_into(&via_topology), sim::SchedulerSpec{},
                             {}, nullptr, clique.get());
  with_topology.run(rounds + 1);
  sim::Network with_ports(Model::kMessagePassing, config, 7,
                          PortAssignment(std::move(sorted_neighbors)),
                          factory_into(&via_ports));
  with_ports.run(rounds + 1);
  EXPECT_EQ(via_topology, via_ports);
}

// ------------------------------------------------------- graph tasks

TEST(GraphTask, MISRefinementJudgesIndependenceAndMaximality) {
  const auto ring = std::make_shared<const Topology>(Topology::ring(5));
  const SymmetricTask task = mis_task(ring);
  EXPECT_TRUE(task.has_refinement());
  EXPECT_TRUE(task.admits_vector({1, 0, 1, 0, 0}));
  EXPECT_TRUE(task.admits_vector({0, 1, 0, 1, 0}));
  // Adjacent 1s: not independent.
  EXPECT_FALSE(task.admits_vector({1, 1, 0, 0, 0}));
  // 4 has no 1-neighbor (neighbors 3 and 0 are both 0): not maximal.
  EXPECT_FALSE(task.admits_vector({0, 1, 0, 0, 0}));
  // All zeros: nothing dominates anything.
  EXPECT_FALSE(task.admits_vector({0, 0, 0, 0, 0}));
}

TEST(GraphTask, MISRefinementIgnoresCrashedParties) {
  const auto ring = std::make_shared<const Topology>(Topology::ring(5));
  const SymmetricTask task = mis_task(ring);
  // {1,1} adjacent but party 1 crashed: its value imposes nothing, and
  // the surviving 0s at 2 and 4 still see the alive ruler at 0 / 3.
  const std::vector<std::int64_t> outputs = {1, 1, 0, 1, 0};
  const std::vector<int> crash_round = {-1, 2, -1, -1, -1};
  EXPECT_TRUE(task.admits_surviving_outputs(outputs, crash_round));
  // Crash the only dominator of a surviving 0 instead: not maximal.
  const std::vector<std::int64_t> lonely = {0, 1, 0, 1, 0};
  const std::vector<int> crash_both = {-1, 2, -1, 2, -1};
  EXPECT_FALSE(task.admits_surviving_outputs(lonely, crash_both));
}

TEST(GraphTask, ColoringRefinementJudgesProperness) {
  const auto path = std::make_shared<const Topology>(Topology::path(4));
  const SymmetricTask task = coloring_task(path);
  EXPECT_TRUE(task.admits_vector({0, 1, 0, 1}));
  EXPECT_TRUE(task.admits_vector({0, 2, 0, 2}));
  EXPECT_FALSE(task.admits_vector({0, 0, 1, 2}));
  // A crashed endpoint lifts the edge constraint.
  const std::vector<std::int64_t> clashing = {0, 0, 1, 0};
  const std::vector<int> one_crashed = {-1, 3, -1, -1};
  EXPECT_TRUE(task.admits_surviving_outputs(clashing, one_crashed));
}

TEST(GraphTask, RulingSetRefinementJudgesDistanceTwoDomination) {
  const auto path = std::make_shared<const Topology>(Topology::path(5));
  const SymmetricTask task = ruling_set_2_task(path);
  // Ruler at 2 covers 0..4 within distance 2.
  EXPECT_TRUE(task.admits_vector({0, 0, 1, 0, 0}));
  // Rulers at 0 and 4: vertex 2 is within 2 of both.
  EXPECT_TRUE(task.admits_vector({1, 0, 0, 0, 1}));
  // Ruler at 0 only: vertex 3 is at distance 3.
  EXPECT_FALSE(task.admits_vector({1, 0, 0, 0, 0}));
  // Adjacent rulers break independence.
  EXPECT_FALSE(task.admits_vector({1, 1, 0, 0, 1}));
  // Domination must route through ALIVE intermediates: with 1 crashed,
  // vertex 0 no longer reaches the ruler at 2.
  const std::vector<std::int64_t> cut_off = {0, 0, 1, 0, 0};
  const std::vector<int> bridge_crashed = {-1, 1, -1, -1, -1};
  EXPECT_FALSE(task.admits_surviving_outputs(cut_off, bridge_crashed));
}

TEST(GraphTaskRegistry, ResolvesAndRejects) {
  const auto ring = std::make_shared<const Topology>(Topology::ring(5));
  EXPECT_TRUE(GraphTaskRegistry::global().contains("mis"));
  EXPECT_TRUE(GraphTaskRegistry::global().contains("2-ruling-set"));
  EXPECT_FALSE(GraphTaskRegistry::global().contains("leader-election"));
  const SymmetricTask task = make_graph_task("coloring", ring);
  EXPECT_EQ(task.num_parties(), 5);
  EXPECT_THROW(make_graph_task("no-such-task", ring), UnknownName);
  EXPECT_FALSE(GraphTaskRegistry::global().describe().empty());
}

// ------------------------------------------------- agents, end to end

struct EndToEndCase {
  std::string agents;
  std::string task;
  std::string topology;
};

class GraphEndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

// Every locality agent solves its task on sparse instances through the
// engine: the run decides within the budget and the instance-checked
// refinement admits the outputs, across seeds.
TEST_P(GraphEndToEnd, AgentsSolveTheirTasksOnSparseGraphs) {
  const EndToEndCase& c = GetParam();
  auto spec =
      Experiment::message_passing(SourceConfiguration::all_private(16))
          .with_agents(make_agents(c.agents))
          .with_topology(c.topology)
          .with_rounds(200)
          .with_seeds(1, 24);
  spec.with_task(c.task);
  spec.validate();
  Engine engine;
  const RunStats stats = engine.run_batch(spec);
  EXPECT_EQ(stats.runs, 24u);
  EXPECT_EQ(stats.terminated, 24u) << c.agents << " on " << c.topology;
  EXPECT_EQ(stats.task_successes, 24u) << c.agents << " on " << c.topology;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GraphEndToEnd,
    ::testing::Values(EndToEndCase{"luby-mis", "mis", "ring"},
                      EndToEndCase{"luby-mis", "mis", "d-regular(3)"},
                      EndToEndCase{"luby-mis", "mis", "power-law(2)"},
                      EndToEndCase{"trial-coloring", "coloring", "ring"},
                      EndToEndCase{"trial-coloring", "coloring",
                                   "d-regular(3)"},
                      EndToEndCase{"ruling-set-2", "2-ruling-set", "ring"},
                      EndToEndCase{"ruling-set-2", "2-ruling-set", "tree"}),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      std::string name = info.param.agents + "_" + info.param.topology;
      for (char& ch : name) {
        if (ch == '-' || ch == '(' || ch == ')') ch = '_';
      }
      return name;
    });

TEST(GraphExperiment, NamedRejectReasonsFire) {
  // Graph task without a topology.
  auto taskless =
      Experiment::message_passing(SourceConfiguration::all_private(8))
          .with_agents(make_agents("luby-mis"));
  try {
    taskless.with_task("mis");
    FAIL() << "expected graph-task-requires-topology";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("graph-task-requires-topology"),
              std::string::npos);
  }
  // Topology on the knowledge backend.
  auto knowledge =
      Experiment::message_passing(SourceConfiguration::all_private(8))
          .with_protocol("wait-for-singleton-LE")
          .with_topology("ring")
          .with_rounds(10);
  try {
    knowledge.validate();
    FAIL() << "expected topology-requires-agent-backend";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("topology-requires-agent-backend"),
              std::string::npos);
  }
  // Topology with a non-default port policy.
  auto wired = Experiment::message_passing(
                   SourceConfiguration::all_private(8), PortPolicy::kCyclic)
                   .with_agents(make_agents("luby-mis"))
                   .with_topology("ring")
                   .with_rounds(10);
  try {
    wired.validate();
    FAIL() << "expected topology-fixes-the-wiring";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("topology-fixes-the-wiring"),
              std::string::npos);
  }
}

TEST(GraphExperiment, CliqueTopologyNormalizesToNull) {
  auto spec = Experiment::message_passing(SourceConfiguration::all_private(6))
                  .with_agents(make_agents("gossip-le"))
                  .with_topology("clique");
  EXPECT_EQ(spec.topology, nullptr);
  spec.with_task("leader-election");  // plain registry task still resolves
  spec.with_rounds(40).with_seeds(1, 8);
  spec.validate();
}

TEST(GraphGrid, OverTopologiesExpandsPerPoint) {
  Grid grid(Experiment::message_passing(SourceConfiguration::all_private(12))
                .with_agents(make_agents("luby-mis"))
                .with_rounds(120)
                .with_seeds(1, 4));
  grid.over_topologies({"ring", "d-regular(3)", "power-law(2)"});
  const std::vector<GridPoint> points = grid.expand();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].label(), "topology=ring");
  ASSERT_NE(points[1].spec.topology, nullptr);
  EXPECT_EQ(points[1].spec.topology->name(), "d-regular(3)");
  EXPECT_EQ(points[2].spec.topology->num_parties(), 12);
}

}  // namespace
}  // namespace rsb::graph
