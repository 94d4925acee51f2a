// E9 — Algorithm 1 (CreateMatching) / Lemmas 4.7-4.8.
//
// Runs the explicit REQ/ACK matching protocol at message level over a grid
// of (|V1|, |V2|) and reports, per cell, the mean number of REQ/ACK
// iterations and network rounds until the matching completes, verifying
// Lemma 4.8 on every run: all of V1 is matched, exactly |V1| members of V2
// are matched, and every party learns termination. The iteration counts
// follow the balls-into-bins recursion the proof describes: each iteration
// matches at least one pair, and typically a constant fraction.
//
// The (|V1|, |V2|) sweep is a declarative ParamGrid with one generic
// "cell" axis (the grid is triangular, not cartesian); per-cell validity
// is a fold collector over the outcomes, so no seed loop is hand-rolled
// anywhere.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "algo/agents.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/report.hpp"

namespace {

using namespace rsb;
using rsb::bench::check;
using rsb::bench::header;

/// Forwards every phase to an inner CreateMatchingAgent, mirroring its
/// decision, and banks the inner iteration counter into a shared tally
/// when the run's network is torn down. Collectors only see outcomes
/// after the network (and its agents) are gone, so per-run agent
/// diagnostics must leave the agent before destruction; the tally is an
/// atomic sum because under threads > 1 agent teardown runs concurrently
/// on the workers.
class TalliedMatchingAgent final : public sim::Agent {
 public:
  TalliedMatchingAgent(sim::MatchingRole role,
                       std::shared_ptr<std::atomic<long>> tally)
      : inner_(role), tally_(std::move(tally)) {}

  ~TalliedMatchingAgent() override {
    if (tally_ != nullptr) {
      tally_->fetch_add(inner_.iterations(), std::memory_order_relaxed);
    }
  }

  void begin(const Init& init) override { inner_.begin(init); }

  void send_phase(int round, std::uint64_t random_word,
                  sim::Outbox& out) override {
    inner_.send_phase(round, random_word, out);
    mirror_decision();
  }

  void receive_phase(int round, const sim::Delivery& delivery) override {
    inner_.receive_phase(round, delivery);
    mirror_decision();
  }

 private:
  void mirror_decision() {
    if (inner_.decided() && !decided()) decide(inner_.output());
  }

  sim::CreateMatchingAgent inner_;
  std::shared_ptr<std::atomic<long>> tally_;
};

struct Cell {
  int n1 = 0;
  int n2 = 0;
  // Sum of party 0's REQ/ACK iteration counts across the cell's runs,
  // banked by the wrapper at network teardown.
  std::shared_ptr<std::atomic<long>> iterations;
};

/// Per-run Lemma 4.8 validity: all of V1 matched, exactly |V1| members of
/// V2 matched — folded alongside the built-in stats. `iterations` sums
/// party 0's REQ/ACK count over *valid* runs only: the fold reads the
/// shared teardown tally's per-run delta, which attributes correctly
/// because the grid engine stays serial (one run, then its observation,
/// at a time — the same constraint the tally had before collectors).
struct ValidTally {
  long valid = 0;
  long rounds = 0;      // summed over valid runs
  long iterations = 0;  // summed over valid runs
  long tally_seen = 0;  // shared-tally watermark for the per-run delta
};

void reproduce_matching() {
  header("Algorithm 1 — CreateMatching over the (|V1|, |V2|) grid");
  const int seeds = 10;

  // Declare the triangular (|V1|, |V2|) sweep as one generic grid axis.
  std::vector<Cell> cells;
  std::vector<std::string> labels;
  std::vector<Grid::Apply> apply;
  for (int n1 = 1; n1 <= 5; ++n1) {
    for (int n2 = n1; n2 <= 6; ++n2) {
      Cell cell{n1, n2, std::make_shared<std::atomic<long>>(0)};
      labels.push_back(std::to_string(n1) + "x" + std::to_string(n2));
      apply.push_back([cell](Experiment& spec) {
        spec.config = SourceConfiguration::all_private(cell.n1 + cell.n2);
        spec.port_seed = static_cast<std::uint64_t>(cell.n1 * 100 + cell.n2);
        spec.factory = [n1 = cell.n1, tally = cell.iterations](int party) {
          const auto role =
              party < n1 ? sim::MatchingRole::kV1 : sim::MatchingRole::kV2;
          return std::make_unique<TalliedMatchingAgent>(
              role, party == 0 ? tally : nullptr);
        };
      });
      cells.push_back(std::move(cell));
    }
  }
  Grid grid(Experiment::message_passing(SourceConfiguration::all_private(2))
                .with_agents([](int) {
                  return std::make_unique<sim::CreateMatchingAgent>(
                      sim::MatchingRole::kV1);
                })  // placeholder backend; every cell overrides the factory
                .with_rounds(8000));
  grid.over("cell", std::move(labels), std::move(apply))
      .over_seeds(1, static_cast<std::uint64_t>(seeds));

  ResultTable table("matching_grid");
  bool all_valid = true;
  // MUST stay serial: ValidTally's per-run iteration delta reads the
  // shared teardown tally between runs, which only attributes correctly
  // when one run completes (and is observed) at a time.
  Engine engine;
  if (engine.parallel().threads != 1) {
    std::fprintf(stderr, "matching grid engine must be serial\n");
    std::abort();
  }
  const std::vector<GridPoint> points = grid.expand();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Cell& cell = cells[i];
    auto [stats, tally] =
        engine
            .run_collect(
                points[i].spec,
                CombineCollectors(
                    RunStats{},
                    fold_collector(
                        ValidTally{},
                        [n1 = cell.n1, n2 = cell.n2,
                         tally = cell.iterations](
                            ValidTally& t, const RunView&,
                            const ProtocolOutcome& outcome) {
                          const long now = tally->load();
                          const long run_iterations = now - t.tally_seen;
                          t.tally_seen = now;
                          if (!outcome.terminated) return;
                          int matched_v1 = 0, matched_v2 = 0;
                          for (int party = 0; party < n1 + n2; ++party) {
                            if (outcome.outputs[static_cast<std::size_t>(
                                    party)] ==
                                sim::CreateMatchingAgent::kMatched) {
                              (party < n1 ? matched_v1 : matched_v2)++;
                            }
                          }
                          if (matched_v1 == n1 && matched_v2 == n1) {
                            ++t.valid;
                            t.rounds += outcome.rounds;
                            t.iterations += run_iterations;
                          }
                        },
                        [](ValidTally& t, ValidTally other) {
                          t.valid += other.valid;
                          t.rounds += other.rounds;
                          t.iterations += other.iterations;
                        })))
            .parts();
    const long valid = tally.state().valid;
    const double mean_iterations =
        valid > 0 ? static_cast<double>(tally.state().iterations) /
                        static_cast<double>(valid)
                  : 0.0;
    const double mean_rounds =
        valid > 0 ? static_cast<double>(tally.state().rounds) /
                        static_cast<double>(valid)
                  : 0.0;
    table.add_row()
        .set("V1", cell.n1)
        .set("V2", cell.n2)
        .set("valid", valid)
        .set("runs", stats.runs)
        .set("iterations", mean_iterations)
        .set("rounds", mean_rounds);
    all_valid = all_valid && valid == static_cast<long>(stats.runs);
  }
  rsb::bench::report_table(table);
  check(all_valid,
        "Lemma 4.8 on every run: perfect matching of the smaller side, "
        "termination known to all");

  rsb::bench::subheader("engine sweep throughput (runs/sec)");
  rsb::bench::engine_throughput(
      "CreateMatching 4+5",
      Experiment::message_passing(SourceConfiguration::all_private(9))
          .with_agents([](int party) {
            return std::make_unique<sim::CreateMatchingAgent>(
                party < 4 ? sim::MatchingRole::kV1 : sim::MatchingRole::kV2);
          })
          .with_port_seed(405)
          .with_rounds(8000)
          .with_seeds(1, 128));
  rsb::bench::footer("matching");
}

void BM_CreateMatching(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const int n2 = static_cast<int>(state.range(1));
  const int n = n1 + n2;
  const auto config = SourceConfiguration::all_private(n);
  const PortAssignment pa = PortAssignment::cyclic(n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Network net(Model::kMessagePassing, config, seed++, pa,
                     [n1](int party) {
                       return std::make_unique<sim::CreateMatchingAgent>(
                           party < n1 ? sim::MatchingRole::kV1
                                      : sim::MatchingRole::kV2);
                     });
    benchmark::DoNotOptimize(net.run(8000));
  }
}
BENCHMARK(BM_CreateMatching)
    ->Args({2, 3})
    ->Args({4, 5})
    ->Args({6, 7})
    ->Args({8, 9});

}  // namespace

int main(int argc, char** argv) {
  reproduce_matching();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return rsb::bench::failure_count() == 0 ? 0 : 1;
}
