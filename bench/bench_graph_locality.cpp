// Graph locality — O(edges) delivery on sparse topologies.
//
// The clique made every broadcast round Θ(n²) messages regardless of what
// the algorithm needed to say; a Topology routes per edge, so a round
// costs 2·|E| — on a d-regular graph that is linear in n. This bench pins
// the claim from both ends:
//
//  * shape checks: a broadcast round on d-regular(3) at n = 4096 routes
//    fewer messages than the clique at n = 128 (12288 vs 16256 — thirty-two
//    times the parties, fewer bytes moved); Luby MIS sweeps at n = 1024 on
//    the sparse graph outpace clique gossip at n = 128; MIS terminates and
//    validates on every seed.
//  * throughput rows: Luby MIS on d-regular(3) at n ∈ {256, 1024, 4096},
//    recorded to BENCH_graph_locality.json for the --baseline gate, plus
//    a messages-per-round table making the O(edges) scaling legible.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "engine/engine.hpp"
#include "graph/agents.hpp"
#include "graph/topology.hpp"
#include "sim/network.hpp"

namespace {

using namespace rsb;
using rsb::bench::check;
using rsb::bench::header;

/// Broadcasts a tiny payload on every port each round; never decides, so
/// fixed-round stepping measures steady-state routing volume.
class BroadcastAgent final : public sim::Agent {
 public:
  void begin(const Init& init) override { ports_ = init.num_ports; }
  void send_phase(int, std::uint64_t, sim::Outbox& out) override {
    if (ports_ > 0) out.send_all("x");
  }
  void receive_phase(int, const sim::Delivery&) override {}

 private:
  int ports_ = 0;
};

std::uint64_t messages_per_round(const graph::Topology& topology) {
  const auto config =
      SourceConfiguration::all_private(topology.num_parties());
  sim::Network net(
      Model::kMessagePassing, config, /*seed=*/1, std::nullopt,
      [](int) { return std::make_unique<BroadcastAgent>(); },
      sim::SchedulerSpec{}, {}, nullptr, &topology);
  const int rounds = 2;
  for (int r = 0; r < rounds; ++r) net.step();
  return net.messages_routed() / static_cast<std::uint64_t>(rounds);
}

Experiment mis_spec(int n, std::uint64_t seeds) {
  auto spec = Experiment::message_passing(SourceConfiguration::all_private(n))
                  .with_agents(graph::make_agents("luby-mis"))
                  .with_topology("d-regular(3)")
                  .with_rounds(300)
                  .with_seeds(1, seeds);
  spec.with_task("mis");
  return spec;
}

Experiment clique_gossip_spec(int n, std::uint64_t seeds) {
  return Experiment::message_passing(SourceConfiguration::all_private(n),
                                     PortPolicy::kCyclic)
      .with_agents(graph::make_agents("gossip-le"))
      .with_task("leader-election")
      .with_rounds(40)
      .with_seeds(1, seeds);
}

void report_graph_locality() {
  header("Graph locality — per-edge delivery on sparse topologies");

  // --- messages per broadcast round: O(edges), not O(n²) ----------------
  ResultTable volume("messages_per_round");
  const graph::Topology clique128 = graph::Topology::clique(128);
  const std::uint64_t clique_volume = messages_per_round(clique128);
  volume.add_row()
      .set("topology", "clique")
      .set("n", std::int64_t{128})
      .set("edges", clique128.num_edges())
      .set("messages_per_round", static_cast<std::int64_t>(clique_volume));
  std::uint64_t sparse4096_volume = 0;
  for (const int n : {256, 1024, 4096}) {
    const graph::Topology sparse = graph::Topology::d_regular(n, 3, 0x70b01);
    const std::uint64_t routed = messages_per_round(sparse);
    if (n == 4096) sparse4096_volume = routed;
    volume.add_row()
        .set("topology", "d-regular(3)")
        .set("n", std::int64_t{n})
        .set("edges", sparse.num_edges())
        .set("messages_per_round", static_cast<std::int64_t>(routed));
    check(routed == static_cast<std::uint64_t>(2 * sparse.num_edges()),
          "d-regular(3) n=" + std::to_string(n) +
              " routes exactly 2|E| messages per broadcast round");
  }
  rsb::bench::report_table(volume);
  check(clique_volume == 128ULL * 127ULL,
        "clique n=128 routes n(n-1) messages per broadcast round");
  check(sparse4096_volume < clique_volume,
        "d-regular(3) at n=4096 moves fewer messages per round (" +
            std::to_string(sparse4096_volume) + ") than the clique at n=128 (" +
            std::to_string(clique_volume) + ") — volume is O(edges)");

  // --- Luby MIS terminates and validates on the sparse instance ---------
  {
    Engine engine;
    const RunStats stats = engine.run_batch(mis_spec(256, 32));
    check(stats.terminated == stats.runs,
          "Luby MIS decides within budget on every seed (n=256)");
    check(stats.task_successes == stats.runs,
          "every decided output is a valid MIS against the instance "
          "adjacency");
  }

  // --- throughput: sparse MIS sweeps vs the clique-era gossip -----------
  // Serial rates only (engine_throughput returns the parallel/serial
  // speedup, not a rate — useless for cross-spec comparison, and the
  // --baseline gate reads single-thread rows anyway).
  const auto serial_rate = [](const std::string& name,
                              const Experiment& spec) {
    Engine engine;
    return rsb::bench::time_runs(name, spec.seeds.count, 1,
                                 [&] { engine.run_batch(spec); });
  };
  double sparse1024_rate = 0.0;
  for (const int n : {256, 1024, 4096}) {
    const std::uint64_t seeds = n <= 256 ? 64 : (n <= 1024 ? 24 : 8);
    const double rate = serial_rate("MIS d-regular(3) n=" + std::to_string(n),
                                    mis_spec(n, seeds));
    if (n == 1024) sparse1024_rate = rate;
  }
  const double clique_rate =
      serial_rate("gossip-LE clique n=128", clique_gossip_spec(128, 32));
  check(sparse1024_rate >= clique_rate,
        "sparse MIS at n=1024 sustains at least clique gossip throughput at "
        "n=128 (O(edges) routing beats O(n²) at an eighth of the size)");
}

void BM_SparseBroadcastRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const graph::Topology topology = graph::Topology::d_regular(n, 3, 0x70b01);
  const auto config = SourceConfiguration::all_private(n);
  sim::PayloadArena arena;
  sim::Network net(
      Model::kMessagePassing, config, 7, std::nullopt,
      [](int) { return std::make_unique<BroadcastAgent>(); },
      sim::SchedulerSpec{}, {}, &arena, &topology);
  for (auto _ : state) {
    net.step();
    benchmark::ClobberMemory();
  }
  // Items = routed messages: 2|E| per round.
  state.SetItemsProcessed(state.iterations() * 2 * topology.num_edges());
}
BENCHMARK(BM_SparseBroadcastRound)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MISSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  const auto spec = mis_spec(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_batch(spec));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MISSweep)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  rsb::bench::consume_baseline_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_graph_locality();
  rsb::bench::footer("graph_locality");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rsb::bench::failure_count() == 0 ? 0 : 1;
}
