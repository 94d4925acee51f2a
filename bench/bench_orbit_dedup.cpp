// Orbit-level run deduplication — symmetry-break the seed space itself.
//
// A sweep over an anonymous clique re-executes runs whose initial
// configurations (coin draws, port wiring, fault schedule) differ only by
// a relabeling of the parties. The orbit pass (engine/orbit.hpp) maps
// each configuration to a canonical representative, executes one run per
// orbit, and replicates the outcome with the relabeling applied — with
// merged results byte-identical to the brute-force sweep (the law pinned
// by tests/orbit_test.cpp). This bench pins the payoff and the non-cost:
//
//  * shape checks: the deduped sweep's RunStats equal the brute sweep's
//    exactly; hits + representatives account for every run; effective
//    throughput (runs/sec including replicated runs) is at least 3x brute
//    on the clique leader-election sweep; the identity path — a spec the
//    orbit pass cannot touch — probes nothing and reproduces the knob-off
//    RunStats.
//  * throughput rows: deduped and brute sweeps, recorded to
//    BENCH_orbit_dedup.json for the --baseline gate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "bench_util.hpp"
#include "engine/orbit.hpp"

namespace {

using namespace rsb;
using rsb::bench::check;
using rsb::bench::header;
using rsb::bench::subheader;
using rsb::bench::time_runs;

// The dedup showcase: 6 anonymous parties on the blackboard running the
// content-equivariant unique-string protocol, so the orbit pass quotients
// by the full symmetric group. Coin columns collide heavily at small n,
// and the leveled memo keeps absorbing longer prefixes as the sweep
// saturates each level's key space — so the hit rate *grows* with the
// seed count; 32768 seeds is well past the knee.
constexpr std::uint64_t kDedupSeeds = 32768;

Experiment dedup_spec() {
  return Experiment::blackboard(SourceConfiguration::all_private(6))
      .with_protocol("blackboard-unique-string-LE")
      .with_task("leader-election")
      .with_rounds(300)
      .with_seeds(1, kDedupSeeds);
}

// The non-cost yardstick: a cyclic message-passing wiring pins party
// identities, so the spec is structurally ineligible and the sweep must
// take the identity path — no table, no probes, no measurable overhead.
constexpr std::uint64_t kIdentitySeeds = 8192;

Experiment identity_spec() {
  return Experiment::message_passing(SourceConfiguration::all_private(5),
                                     PortPolicy::kCyclic)
      .with_protocol("wait-for-singleton-LE")
      .with_task("leader-election")
      .with_rounds(300)
      .with_seeds(1, kIdentitySeeds);
}

void report_orbit_dedup() {
  header("Orbit-level run deduplication — one run per configuration orbit");

  subheader("byte-identity and orbit accounting");
  const Experiment spec = dedup_spec();
  Engine brute;
  Engine deduped;
  deduped.set_parallel({1, 0, 1, /*orbit=*/true});
  const RunStats brute_stats = brute.run_batch(spec);
  const RunStats orbit_stats = deduped.run_batch(spec);
  check(brute_stats == orbit_stats,
        "deduped RunStats are byte-identical to the brute-force sweep");
  check(OrbitTable::eligible(spec),
        "the showcase spec is orbit-eligible (full symmetric group)");
  check(deduped.orbit_hits() + deduped.orbit_reps() == kDedupSeeds,
        "memo hits + representatives account for every run (" +
            std::to_string(deduped.orbit_hits()) + " + " +
            std::to_string(deduped.orbit_reps()) + " = " +
            std::to_string(kDedupSeeds) + ")");
  check(deduped.orbit_hits() > kDedupSeeds / 2,
        "the orbits are heavily nontrivial at n=6: " +
            std::to_string(deduped.orbit_hits()) + " of " +
            std::to_string(kDedupSeeds) + " runs replicated");

  subheader("effective throughput (every run counted, replicated or not)");
  const double brute_rate =
      time_runs("brute force clique-6 unique-string LE", kDedupSeeds, 1, [&] {
        Engine engine;
        benchmark::DoNotOptimize(engine.run_batch(spec));
      });
  const double orbit_rate =
      time_runs("orbit dedup clique-6 unique-string LE", kDedupSeeds, 1, [&] {
        Engine engine;
        engine.set_parallel({1, 0, 1, /*orbit=*/true});
        benchmark::DoNotOptimize(engine.run_batch(spec));
      });
  const double speedup = brute_rate > 0.0 ? orbit_rate / brute_rate : 0.0;
  check(speedup >= 3.0,
        "orbit dedup sweeps >= 3x the brute-force rate (measured " +
            std::to_string(speedup) + "x)");

  subheader("identity path is free");
  const Experiment identity = identity_spec();
  check(!OrbitTable::eligible(identity),
        "the cyclic-wiring spec is structurally ineligible");
  // No table is built for an ineligible spec, so the knob's two settings
  // run identical code: the proof is that nothing was probed and nothing
  // changed, not a comparison of two timings of the same instructions.
  Engine off;
  Engine on;
  on.set_parallel({1, 0, 1, /*orbit=*/true});
  const RunStats off_stats = off.run_batch(identity);
  check(on.run_batch(identity) == off_stats,
        "orbit on reproduces the orbit-off RunStats on an ineligible spec");
  check(on.orbit_hits() + on.orbit_reps() == 0,
        "the knob never probes an ineligible spec (hits + reps = " +
            std::to_string(on.orbit_hits() + on.orbit_reps()) + ")");
  // Both timed rows stay for the --baseline gate.
  time_runs("identity path cyclic MP LE, orbit off", kIdentitySeeds, 1, [&] {
    Engine engine;
    benchmark::DoNotOptimize(engine.run_batch(identity));
  });
  time_runs("identity path cyclic MP LE, orbit on", kIdentitySeeds, 1, [&] {
    Engine engine;
    engine.set_parallel({1, 0, 1, /*orbit=*/true});
    benchmark::DoNotOptimize(engine.run_batch(identity));
  });
}

void BM_OrbitDedupSweep(benchmark::State& state) {
  const Experiment spec = dedup_spec();
  for (auto _ : state) {
    Engine engine;
    engine.set_parallel({1, 0, 1, /*orbit=*/true});
    benchmark::DoNotOptimize(engine.run_batch(spec));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDedupSeeds));
}
BENCHMARK(BM_OrbitDedupSweep);

void BM_BruteForceSweep(benchmark::State& state) {
  const Experiment spec = dedup_spec();
  for (auto _ : state) {
    Engine engine;
    benchmark::DoNotOptimize(engine.run_batch(spec));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDedupSeeds));
}
BENCHMARK(BM_BruteForceSweep);

}  // namespace

int main(int argc, char** argv) {
  rsb::bench::consume_baseline_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_orbit_dedup();
  rsb::bench::footer("orbit_dedup");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rsb::bench::failure_count() == 0 ? 0 : 1;
}
