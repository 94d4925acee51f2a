// E15 — large-n message passing on the zero-copy simulation core.
//
// The symmetry-breaking cost bounds that motivate the paper's regime
// (Barenboim–Elkin–Pettie–Schneider-style locality bounds) only bite at
// scale, so this bench drives the simulator where message materialization
// used to dominate: n parties each broadcasting every round is Θ(n²)
// messages per round, which the pre-arena simulator paid for with Θ(n²)
// heap-allocated std::string copies (plus another copy per held/delayed
// message). Under the PayloadArena every broadcast interns its bytes
// once and fans out 4-byte ids, so the per-round cost is routing + one
// sort — the arena's win, pinned here two ways:
//
//  * shape checks: a broadcast round of n agents interns exactly n
//    payloads (not n·(n−1)), delivery stays canonically sorted, and the
//    engine sweep is byte-identical at 1 vs N threads under the
//    work-stealing scheduler;
//  * throughput rows: gossip leader election swept at n = 32..128 in both
//    the synchronous and the random-delay schedule (held-queue traffic),
//    recorded to BENCH_large_n_messaging.json for the --baseline gate.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "algo/agents.hpp"
#include "bench_util.hpp"
#include "engine/engine.hpp"
#include "sim/network.hpp"

namespace {

using namespace rsb;
using rsb::bench::check;
using rsb::bench::header;

/// Broadcasts a fixed-size payload via send_all every round; decides on
/// the first delivery (keeps large-n networks stepping indefinitely
/// without terminating the run loop early).
class FloodAgent final : public sim::Agent {
 public:
  explicit FloodAgent(std::string payload) : payload_(std::move(payload)) {}

  void send_phase(int, std::uint64_t, sim::Outbox& out) override {
    out.send_all(payload_);
  }
  void receive_phase(int, const sim::Delivery& delivery) override {
    if (!decided()) decide(static_cast<std::int64_t>(delivery.by_port.size()));
  }

 private:
  std::string payload_;
};

Experiment gossip_spec(int n, std::uint64_t seeds) {
  return Experiment::message_passing(SourceConfiguration::all_private(n),
                                     PortPolicy::kCyclic)
      .with_agents(
          [](int) { return std::make_unique<sim::GossipLeaderElectionAgent>(); })
      .with_task("leader-election")
      .with_rounds(40)
      .with_seeds(1, seeds);
}

void report_large_n() {
  header("Large-n message passing — arena-interned broadcast traffic");

  // --- arena sharing pin: n broadcasts intern n payloads, not n(n-1) ---
  const int kBig = 128;
  {
    const auto config = SourceConfiguration::all_private(kBig);
    sim::Network net(Model::kMessagePassing, config, 1,
                     PortAssignment::cyclic(kBig), [](int party) {
                       return std::make_unique<FloodAgent>(
                           "payload-of-party-" + std::to_string(party));
                     });
    net.step();
    check(net.arena().size() == static_cast<std::size_t>(kBig),
          "broadcast round at n=128 interns exactly n payloads (got " +
              std::to_string(net.arena().size()) + ")");
    net.step();
    check(net.arena().size() == static_cast<std::size_t>(kBig),
          "round 2 re-broadcasts re-use the same n interned payloads");
    bool all_saw_all = true;
    for (int party = 0; party < kBig; ++party) {
      all_saw_all = all_saw_all && net.agent(party).output() == kBig - 1;
    }
    check(all_saw_all, "every party receives n-1 port messages per round");
  }

  // --- sweep throughput, synchronous and delayed, with identity check ---
  RunStats reference;
  for (const int n : {32, 64, 128}) {
    const std::uint64_t seeds = n <= 64 ? 256 : 64;
    const auto sync = gossip_spec(n, seeds);
    const double serial_rate = rsb::bench::engine_throughput(
        "gossip-LE n=" + std::to_string(n) + " sync", sync);
    (void)serial_rate;
    if (n == 64) {
      Engine serial;
      reference = serial.run_batch(sync);
    }
    const auto delayed = gossip_spec(n, seeds).with_scheduler(
        sim::SchedulerSpec::random_delay(3));
    rsb::bench::engine_throughput(
        "gossip-LE n=" + std::to_string(n) + " delay<=3", delayed);
  }
  // Work-stealing determinism at scale: the n=64 aggregate is
  // byte-identical for every thread count and chunk knob.
  bool identical = true;
  for (int threads : {2, 4}) {
    for (std::uint64_t chunk : {std::uint64_t{0}, std::uint64_t{5}}) {
      Engine parallel;
      parallel.set_parallel({threads, chunk});
      identical =
          identical && parallel.run_batch(gossip_spec(64, 256)) == reference;
    }
  }
  check(identical,
        "n=64 sweep byte-identical at 2/4 threads and chunk knobs 0/5 "
        "(work-stealing scheduler)");
}

void BM_BroadcastRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto config = SourceConfiguration::all_private(n);
  sim::PayloadArena arena;
  sim::Network net(Model::kMessagePassing, config, 7,
                   PortAssignment::cyclic(n),
                   [](int party) {
                     return std::make_unique<FloodAgent>(
                         "payload-of-party-" + std::to_string(party));
                   },
                   sim::SchedulerSpec{}, {}, &arena);
  for (auto _ : state) {
    net.step();
    benchmark::ClobberMemory();
  }
  // Items = routed messages: n parties × (n-1) ports.
  state.SetItemsProcessed(state.iterations() * n * (n - 1));
}
BENCHMARK(BM_BroadcastRound)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GossipSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Engine engine;
  const auto spec = gossip_spec(n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_batch(spec));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_GossipSweep)->Arg(32)->Arg(64)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  rsb::bench::consume_baseline_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_large_n();
  rsb::bench::footer("large_n_messaging");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rsb::bench::failure_count() == 0 ? 0 : 1;
}
