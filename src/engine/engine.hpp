// The experiment engine: batched execution of declarative specs.
//
// An Engine drives sweeps of (spec, seed) runs. The mutable scratch state a
// run needs — its KnowledgeStore intern table and coin engines — lives in
// a RunContext (engine/run_context.hpp); the engine keeps one per worker,
// reusing allocations across all runs of a batch, and worker 0's serves
// every one-worker sweep. Every run, a single Engine::run included, goes
// through the one sweep scheduler (drive), and every knowledge-backend run
// executes alone through run_prepared. Semantics are those of the one-shot
// definition: a reset store hands out ids in the same insertion order as a
// fresh one, so Engine results are bit-identical to a per-run reference
// with a fresh store and SourceBank for equal (spec, seed) — a guarantee
// the engine and property tests assert.
//
// Parallelism (ParallelConfig) never changes results: every run is a pure
// function of (spec, seed, ports), per-run port assignments are drawn
// draw-for-draw as in the serial sweep regardless of which worker executes
// the run, fault and scheduler draws are keyed on the run's own seed
// (sim/fault.hpp, sim/scheduler.hpp — no shared stream, hence no
// skip-ahead). Chunks of consecutive runs are claimed through a
// work-stealing deque — each worker owns a contiguous chunk range, pops
// from its front, and steals the back half of the fullest victim when dry
// — and every chunk observes into its *own* collector shard; shards are
// merged in chunk-index order, i.e. run-index order, so which worker
// executed a chunk (inherently timing-dependent under stealing) never
// reaches the results: every sweep returns byte-identical aggregates for
// any thread count (pinned by tests/parallel_engine_test.cpp,
// tests/collector_test.cpp and tests/fault_scheduler_test.cpp).
//
// Aggregation is pluggable (engine/collector.hpp): run_collect sweeps a
// spec into any Collector — each scheduling chunk owns a shard, so nothing
// is buffered per run; run_batch is the RunStats shorthand, and
// run_collect_ranges sweeps several seed ranges of one spec in one drive,
// one collector per range. A caller that
// needs runs one by one collects them (copies, in shard order) and reads
// them after the sweep — there is no per-run callback. One spec type
// (Experiment) drives both backends: knowledge-level protocols via
// with_protocol, message-level agents (sim::Network, e.g. Euclid /
// CreateMatching) via with_agents. Multi-axis sweeps live one layer up in
// engine/grid.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "engine/collector.hpp"
#include "engine/experiment.hpp"
#include "engine/run_context.hpp"
#include "knowledge/knowledge.hpp"
#include "randomness/source_bank.hpp"
#include "sim/network.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsb {

/// Ceiling on the scheduling chunks (= collector shards) one sweep's seed
/// count may ask for; a sweep past it gets a proportionally coarser
/// chunk. It also caps the ranges of one run_collect_ranges call, so a
/// sweep holds at most 2 × kMaxChunksPerBatch shards (each range adds at
/// most one ragged chunk).
inline constexpr std::uint64_t kMaxChunksPerBatch = 4096;

/// How a batch is spread over threads. The default is serial; threads = 0
/// means "one worker per hardware thread". The sweep is cut into chunks of
/// `chunk` consecutive runs — the granule of the work-stealing scheduler
/// and of per-chunk collector shards (chunk = 0 picks several granules per
/// worker, so uneven runs balance). The knob is a granularity hint: it
/// trades scheduling granularity against shard count and port-stream skip
/// work, the engine coarsens it as needed so one batch never materializes
/// more than a few thousand shards, and it never affects results.
struct ParallelConfig {
  int threads = 1;          // worker count; 1 = serial, 0 = all hardware
  std::uint64_t chunk = 0;  // runs per scheduling chunk; 0 = auto
  int batch = 1;       // ignored; the benchmark PR (ROADMAP item 2) deletes it
  bool orbit = false;  // ignored; the benchmark PR (ROADMAP item 2) deletes it

  /// Throws InvalidArgument on threads < 0.
  void validate() const;
};

class Engine {
 public:
  Engine() = default;

  /// Sets the scheduling policy for subsequent batches. Returns *this for
  /// chaining; throws what config.validate() throws.
  Engine& set_parallel(ParallelConfig config);

  /// Shorthand for set_parallel({threads, 0}).
  Engine& with_threads(int threads) { return set_parallel({threads, 0}); }

  const ParallelConfig& parallel() const noexcept { return parallel_; }

  /// One run of the spec at the given seed: a one-seed sweep at port
  /// stream offset 0, so the run draws run 0's wiring. Deterministic:
  /// equal (spec, seed) produce equal outcomes regardless of the engine's
  /// history. Always executes on the calling thread.
  ProtocolOutcome run(const Experiment& spec, std::uint64_t seed);

  /// One run at the spec's first seed.
  ProtocolOutcome run(const Experiment& spec);

  /// Sweeps spec.seeds into the given collector and returns it. The
  /// collector passed in is the empty prototype (a merge identity, which
  /// any freshly constructed collector is): under threads > 1 every
  /// scheduling chunk observes into its own copy and the shards are
  /// merged back in chunk-index (= run-index) order — shard memory is
  /// bounded (the chunk hint is coarsened past a few thousand chunks),
  /// nothing is buffered per run, and results are byte-identical for
  /// every ParallelConfig however the work-stealing scheduler balances
  /// the chunks.
  template <Collector C>
  C run_collect(const Experiment& spec, C collector) {
    return run_collect_range(spec, spec.seeds, std::move(collector));
  }

  /// Sweeps an arbitrary contiguous sub-range of the spec's seed space
  /// into the collector, resuming a sweep mid-stream without re-running
  /// the prefix: the port stream is positioned at offset
  /// `range.first - spec.seeds.first`, so run `range.first + i` draws the
  /// exact per-run wiring it would draw inside a full run_collect of the
  /// spec. This gives the resumption law — collecting {first, a} and then
  /// {first + a, b} and merging equals one {first, a + b} sweep, byte for
  /// byte (pinned by tests/adaptive_grid_test.cpp) — which is what lets
  /// run_grid_adaptive (engine/grid.hpp) grow each grid point's sweep in
  /// installments while staying prefix-identical to the uniform sweep.
  /// The range must start at or after spec.seeds.first; it may extend
  /// past the spec's declared count (the declared range is the default
  /// query, not a hard bound — grid-level callers enforce their own
  /// caps). All run_collect guarantees (byte-identity across every
  /// ParallelConfig) carry over unchanged.
  template <Collector C>
  C run_collect_range(const Experiment& spec, SeedRange range, C collector) {
    if (range.first < spec.seeds.first) {
      throw InvalidArgument(
          "run_collect_range: range.first " + std::to_string(range.first) +
          " precedes the spec's first seed " +
          std::to_string(spec.seeds.first) +
          " (the port stream cannot be positioned before run 0)");
    }
    Experiment sub = spec;
    sub.seeds = range;
    sub.validate();
    const Segment segment{range, range.first - spec.seeds.first};
    std::uint64_t chunks = 0;
    collect_segments(sub, std::span(&segment, 1), std::span(&chunks, 1),
                     &collector);
    return collector;
  }

  /// Sweeps several seed ranges of one spec in a single drive, one
  /// collector per range: result k equals run_collect of the spec
  /// restricted to ranges[k] (seeds = ranges[k]), byte for byte — each
  /// range's port stream starts at offset 0 at its first seed, its runs
  /// are numbered from 0 in RunView::run_index, and no scheduling chunk
  /// spans two ranges, so each range's shards merge in chunk order into
  /// its own collector. RunView::experiment points at `spec` itself,
  /// whose `seeds` member the sweep does not read. What the call saves
  /// over one run_collect per range is the per-drive cost: one worker
  /// pool spawn and join for all of them. Ranges may be in any order and
  /// may overlap. Throws InvalidArgument for an invalid spec, an empty
  /// range, or more than kMaxChunksPerBatch ranges.
  template <Collector C>
  std::vector<C> run_collect_ranges(const Experiment& spec,
                                    std::span<const SeedRange> ranges,
                                    const C& collector) {
    spec.validate();
    if (ranges.size() > kMaxChunksPerBatch) {
      throw InvalidArgument("run_collect_ranges: " +
                            std::to_string(ranges.size()) +
                            " ranges exceed the ceiling of " +
                            std::to_string(kMaxChunksPerBatch));
    }
    std::vector<Segment> segments;
    segments.reserve(ranges.size());
    for (const SeedRange range : ranges) {
      if (range.count == 0) {
        throw InvalidArgument("run_collect_ranges: empty seed range");
      }
      segments.push_back(Segment{range, 0});
    }
    std::vector<std::uint64_t> chunk_ends(ranges.size());
    std::vector<C> out(ranges.size(), collector);
    collect_segments(spec, std::span<const Segment>(segments), chunk_ends,
                     out.data());
    return out;
  }

  /// Sweeps spec.seeds into a RunStats, the default collector: shorthand
  /// for run_collect(spec, RunStats{}).
  RunStats run_batch(const Experiment& spec) {
    return run_collect(spec, RunStats{});
  }

  /// Peak intern-table size seen so far (diagnostic for allocation reuse),
  /// aggregated as the max over every worker context the engine has run.
  std::size_t store_high_water() const noexcept { return store_high_water_; }

  /// Always 0; ignored; the benchmark PR (ROADMAP item 2) deletes it.
  std::uint64_t orbit_hits() const noexcept { return 0; }
  /// Always 0; ignored; the benchmark PR (ROADMAP item 2) deletes it.
  std::uint64_t orbit_reps() const noexcept { return 0; }

 private:
  /// One contiguous run range of a drive: its run i executes seed
  /// `seeds.first + i` and draws the port stream's wiring number
  /// `stream_offset + i`.
  struct Segment {
    SeedRange seeds;
    std::uint64_t stream_offset = 0;
  };

  /// Sizes the shard set for the batch (called exactly once, before any
  /// run executes): one shard per scheduling chunk — a one-worker batch is
  /// one chunk per segment, hence one shard per segment. Shards are laid
  /// out segment by segment, so merging each segment's shards in index
  /// order reproduces its run-index order.
  using PrepareShards = std::function<void(int shards)>;
  /// Folds one finished run into shard `shard`. A one-worker batch uses
  /// shard 0 on the calling thread; parallel workers call it concurrently,
  /// each holding exactly one chunk (= shard) at a time.
  using ShardObserver = std::function<void(
      int shard, const RunView& view, const ProtocolOutcome& outcome)>;

  /// The only sweep scheduler, behind every sweep entry point and
  /// Engine::run: cuts each segment into chunks of consecutive runs (no
  /// chunk spans two segments), lets workers claim them through the
  /// work-stealing deque (one worker runs inline on the calling thread,
  /// more run on a thread pool), repositions each worker's port provider
  /// draw-for-draw with the serial sweep, executes runs through
  /// execute_range, and reports each run into its chunk's shard. Does not
  /// validate the spec, and reads the seeds from the segments, never from
  /// spec.seeds. A segment's `stream_offset` is the number of port-stream
  /// runs consumed before its run 0 — 0 for a full sweep, and the resumed
  /// range's distance from the declaring spec's first seed for
  /// run_collect_range — so providers are positioned at stream_offset +
  /// chunk begin. Before calling `prepare`, fills chunk_ends[s] (one per
  /// segment) with one past the index of segment s's last chunk.
  void drive(const Experiment& spec, std::span<const Segment> segments,
             std::span<std::uint64_t> chunk_ends, const PrepareShards& prepare,
             const ShardObserver& observe);

  /// Drives `segments` and merges segment s's shards, in chunk order,
  /// into out[s]; out[0] is also the empty prototype every shard copies.
  /// chunk_ends is drive's scratch (one entry per segment).
  template <Collector C>
  void collect_segments(const Experiment& spec,
                        std::span<const Segment> segments,
                        std::span<std::uint64_t> chunk_ends, C* out) {
    std::vector<C> shards;
    drive(
        spec, segments, chunk_ends,
        [&shards, out](int count) {
          // Copy-construct the shards (collectors need not be assignable
          // — lambda-carrying folds are not).
          shards.reserve(static_cast<std::size_t>(count));
          for (int c = 0; c < count; ++c) shards.push_back(*out);
        },
        [&shards](int shard, const RunView& view,
                  const ProtocolOutcome& outcome) {
          shards[static_cast<std::size_t>(shard)].observe(view, outcome);
        });
    std::size_t shard = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      for (; shard < chunk_ends[s]; ++shard) {
        out[s].merge(std::move(shards[shard]));
      }
    }
  }

  std::vector<RunContext> worker_ctxs_;  // one per worker, reused per batch
  ParallelConfig parallel_;
  std::size_t store_high_water_ = 0;
};

}  // namespace rsb
