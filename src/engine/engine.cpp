#include "engine/engine.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace rsb {

namespace {

/// The worker count a batch of `count` runs actually uses: the configured
/// number (0 = hardware concurrency), never more than the run count.
int resolve_workers(const ParallelConfig& config, std::uint64_t count) {
  std::uint64_t workers = static_cast<std::uint64_t>(config.threads);
  if (config.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : hw;
  }
  if (count > 0 && workers > count) workers = count;
  return static_cast<int>(std::max<std::uint64_t>(workers, 1));
}

/// The scheduling granule of a parallel batch: the configured knob, or —
/// when auto (chunk = 0) — several granules per worker (capped at
/// kAutoGranulesPerWorker) so the work-stealing deque has something to
/// balance when run lengths are uneven. Granularity never affects results
/// (per-chunk shards are merged in chunk order), only load balance and
/// shard count.
constexpr std::uint64_t kAutoGranulesPerWorker = 8;

/// The effective chunk: the knob, or the auto granule, coarsened so the
/// batch's `count` runs ask for at most kMaxChunksPerBatch chunks (shard
/// memory and the final merge are O(chunks), so the chunk knob is a
/// granularity *hint*). Segment edges add at most one ragged chunk per
/// segment, and the segments are capped at kMaxChunksPerBatch too, so the
/// chunk index stays safely within int for the shard observer.
std::uint64_t resolve_chunk(const ParallelConfig& config, std::uint64_t count,
                            int workers) {
  std::uint64_t chunk = config.chunk;
  if (chunk == 0) {
    const std::uint64_t granules =
        static_cast<std::uint64_t>(workers) * kAutoGranulesPerWorker;
    chunk = std::max<std::uint64_t>(1, (count + granules - 1) / granules);
  }
  return std::max(chunk,
                  (count + kMaxChunksPerBatch - 1) / kMaxChunksPerBatch);
}

/// The work-stealing chunk deque. Every worker starts owning a contiguous
/// range of chunk indices; it pops from the front of its own range, and
/// when dry steals the back half of the fullest victim's range. One lock
/// guards the whole structure — it is taken once per *chunk* (not per
/// run), so contention is negligible at any sane granularity. Stealing
/// makes the worker→chunk map timing-dependent, which is why results are
/// keyed by chunk (per-chunk shards), never by worker.
class ChunkDeque {
 public:
  ChunkDeque(std::uint64_t num_chunks, int workers)
      : ranges_(static_cast<std::size_t>(workers)) {
    const std::uint64_t base =
        num_chunks / static_cast<std::uint64_t>(workers);
    const std::uint64_t extra =
        num_chunks % static_cast<std::uint64_t>(workers);
    std::uint64_t begin = 0;
    for (std::size_t w = 0; w < ranges_.size(); ++w) {
      const std::uint64_t len = base + (w < extra ? 1 : 0);
      ranges_[w] = Range{begin, begin + len};
      begin += len;
    }
  }

  /// Claims the next chunk for worker `w`; false when the batch is done.
  bool pop(int w, std::uint64_t& chunk) {
    std::lock_guard lock(mutex_);
    Range& own = ranges_[static_cast<std::size_t>(w)];
    if (own.begin == own.end) {
      // Steal the back half of the fullest victim.
      std::size_t victim = ranges_.size();
      std::uint64_t best = 0;
      for (std::size_t v = 0; v < ranges_.size(); ++v) {
        const std::uint64_t len = ranges_[v].end - ranges_[v].begin;
        if (len > best) {
          best = len;
          victim = v;
        }
      }
      if (victim == ranges_.size()) return false;  // everything claimed
      Range& from = ranges_[victim];
      const std::uint64_t take = (best + 1) / 2;
      own = Range{from.end - take, from.end};
      from.end -= take;
    }
    chunk = own.begin++;
    return true;
  }

 private:
  struct Range {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  std::vector<Range> ranges_;
  std::mutex mutex_;
};

/// Spawns `workers` threads running body(w), joining them all even when
/// thread creation itself fails mid-way (destroying a joinable
/// std::thread would terminate the process), and rethrows the first
/// worker exception in worker-index order.
template <typename Body>
void run_worker_pool(int workers, Body&& body) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&errors, &body, w] {
        try {
          body(w);
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
        }
      });
    }
  } catch (...) {
    for (std::thread& worker : pool) worker.join();
    throw;
  }
  for (std::thread& worker : pool) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// The policy the run's PortProvider draws under. A topology spec routes
/// through the graph's own wiring — its provider produces no assignments
/// and consumes no port-seed stream, whatever the spec's nominal policy
/// (validate() pins it to the message-passing default anyway).
PortPolicy provider_policy(const Experiment& spec) {
  return spec.topology != nullptr ? PortPolicy::kNone : spec.port_policy;
}

/// Executes runs [begin, end) of a sweep of `spec` whose run 0 is seed
/// `first_seed` through `ctx`, one run per call of run_prepared
/// (knowledge backend) or run_agent_prepared, reporting each run to
/// per_run(run_index, ports, outcome) in run-index order. `ports` must be
/// positioned at `begin`'s wiring; on return it is one past `end`'s.
template <typename PerRun>
void execute_range(RunContext& ctx, const Experiment& spec,
                   PortProvider& ports, std::uint64_t first_seed,
                   std::uint64_t begin, std::uint64_t end,
                   const PerRun& per_run) {
  const bool knowledge = spec.backend() == Experiment::Backend::kProtocol;
  for (std::uint64_t i = begin; i < end; ++i) {
    const std::uint64_t seed = first_seed + i;
    const PortAssignment* assignment = ports.next();
    if (knowledge) {
      per_run(i, assignment, run_prepared(ctx, spec, seed, assignment));
    } else {
      per_run(i, assignment, run_agent_prepared(ctx, spec, seed, assignment));
    }
  }
}

}  // namespace

void ParallelConfig::validate() const {
  if (threads < 0) {
    throw InvalidArgument("ParallelConfig: threads must be >= 0");
  }
}

Engine& Engine::set_parallel(ParallelConfig config) {
  config.validate();
  parallel_ = config;
  return *this;
}

ProtocolOutcome Engine::run(const Experiment& spec, std::uint64_t seed) {
  // A one-seed sweep at stream offset 0: run 0's wiring, at `seed`.
  Experiment one = spec;
  one.seeds = SeedRange::single(seed);
  one.validate();
  const Segment segment{one.seeds, 0};
  std::uint64_t chunks = 0;
  ProtocolOutcome outcome;
  drive(
      one, std::span(&segment, 1), std::span(&chunks, 1), [](int) {},
      [&outcome](int, const RunView&, const ProtocolOutcome& result) {
        outcome = result;
      });
  return outcome;
}

ProtocolOutcome Engine::run(const Experiment& spec) {
  return run(spec, spec.seeds.first);
}

/// The shared scheduling core. Determinism under work stealing: each
/// segment is cut into fixed chunks of consecutive run indices, numbered
/// segment after segment, workers claim chunks dynamically through the
/// ChunkDeque (timing-dependent), each worker repositions its port
/// provider to every chunk's start with the serial sweep's exact rng
/// consumption (PortProvider::skip_to, rewind included), and each run is
/// reported into its *chunk's* shard — so the timing-dependent
/// worker→chunk map never reaches the observations, and merging a
/// segment's shards in chunk-index order (collect_segments) reproduces
/// its serial aggregate byte for byte.
void Engine::drive(const Experiment& spec, std::span<const Segment> segments,
                   std::span<std::uint64_t> chunk_ends,
                   const PrepareShards& prepare,
                   const ShardObserver& observe) {
  std::uint64_t count = 0;
  for (const Segment& segment : segments) count += segment.seeds.count;
  int workers = resolve_workers(parallel_, count);
  // One worker sweeps each segment as one chunk into one shard.
  const std::uint64_t chunk = workers > 1
                                  ? resolve_chunk(parallel_, count, workers)
                                  : std::numeric_limits<std::uint64_t>::max();
  std::uint64_t num_chunks = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::uint64_t runs = segments[s].seeds.count;
    num_chunks += runs / chunk + (runs % chunk != 0 ? 1 : 0);
    chunk_ends[s] = num_chunks;
  }
  // A coarse chunk can leave fewer chunks than workers; don't spawn
  // threads that could never receive one.
  if (static_cast<std::uint64_t>(workers) > num_chunks) {
    workers = static_cast<int>(std::max<std::uint64_t>(num_chunks, 1));
  }

  // Worker contexts persist on the engine so a sweep of many batches
  // reuses their allocations; worker 0's serves every one-worker sweep.
  if (worker_ctxs_.size() < static_cast<std::size_t>(workers)) {
    worker_ctxs_.resize(static_cast<std::size_t>(workers));
  }
  prepare(static_cast<int>(num_chunks));
  ChunkDeque deque(num_chunks, workers);
  const auto work = [&](int w) {
    RunContext& ctx = worker_ctxs_[static_cast<std::size_t>(w)];
    PortProvider ports(spec.model, provider_policy(spec), spec.fixed_ports,
                       spec.config, spec.port_seed);
    std::uint64_t c = 0;
    while (deque.pop(w, c)) {
      const std::size_t s = static_cast<std::size_t>(
          std::upper_bound(chunk_ends.begin(), chunk_ends.end(), c) -
          chunk_ends.begin());
      const Segment& segment = segments[s];
      const std::uint64_t begin = (c - (s == 0 ? 0 : chunk_ends[s - 1])) * chunk;
      const std::uint64_t end =
          begin + std::min(chunk, segment.seeds.count - begin);
      ports.skip_to(segment.stream_offset + begin);
      execute_range(ctx, spec, ports, segment.seeds.first, begin, end,
                    [&](std::uint64_t i, const PortAssignment* assignment,
                        const ProtocolOutcome& outcome) {
                      observe(static_cast<int>(c),
                              RunView{segment.seeds.first + i, i, assignment,
                                      &spec},
                              outcome);
                    });
    }
  };
  // One worker runs on the calling thread; only more spawn a pool.
  if (workers == 1) {
    work(0);
  } else {
    run_worker_pool(workers, work);
  }
  for (const RunContext& ctx : worker_ctxs_) {
    store_high_water_ = std::max(store_high_water_, ctx.store_high_water);
  }
}

}  // namespace rsb
