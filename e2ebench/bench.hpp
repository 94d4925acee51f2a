// Shared pieces of the end-to-end benchmark binary: sample statistics, the
// in-memory span tracer, and the result every workload fills in.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace rsb::e2e {

using Clock = std::chrono::steady_clock;

/// The engine of the untraced runs' correctness oracle: serial, 16-lane
/// lockstep batches, no orbit dedup. Its results are pinned byte-identical
/// to every other configuration's.
inline constexpr ParallelConfig kReferenceLanes{1, 0, 16, false};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ statistics

/// Linearly interpolated quantile of an unsorted sample; 0 when empty.
double quantile(std::vector<double> sample, double q);

inline double median(const std::vector<double>& sample) {
  return quantile(sample, 0.5);
}

/// The tail of a latency sample: the highest whole percentile with at least
/// ten samples above it (nearest rank), or the maximum of ten or fewer.
struct Tail {
  double value = 0.0;
  int percentile = 100;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> sample);

// ---------------------------------------------------------------- tracing

/// The layer a span is charged to. Spans wrap the benchmark's own calls
/// into the library's public functions.
enum Layer : std::uint8_t {
  kBench,           // the benchmark's op or job (root span)
  kEngineSweep,     // Engine::run_collect
  kEnginePorts,     // PortProvider::next
  kRandomness,      // SourceBank::reset, SourceBank::party_bit
  kKnowledgeReset,  // KnowledgeStore::reset
  kModelRound,      // blackboard_round_inplace, message_round_inplace
  kAlgoDecide,      // AnonymousProtocol::decide
  kTasksAdmit,      // SymmetricTask::admits_outputs
  kClientCall,      // service::Client::connect, send_line
  kClientWait,      // service::Client::read_line
  kJsonParse,       // service::json::Value::parse
  kCanonical,       // expand_request, CanonicalSpec::to_experiment
  kRunChunk,        // service::run_chunk
  kSerialize,       // service::row_payload
  kCacheLookup,     // ResultCache::lookup
  kLayerCount,
};

/// What recording one empty span adds to measured time: `inner_ns` to the
/// span's own duration, `outer_ns` to its parent's self time.
struct SpanCost {
  double inner_ns = 0.0;
  double outer_ns = 0.0;
};

/// Spans (layer, start, end, parent, op or job id) stay in memory while
/// their root span is open. When the root closes they are folded into
/// per-layer self time — a span's time minus its child spans' time, less
/// the measured cost of recording the spans — and span counts, so memory
/// stays bounded by one op or job. Single-threaded: every thread that
/// records spans owns its own tracer.
class Tracer {
 public:
  Tracer() : cost_(span_cost()) {}

  void begin(Layer layer, std::uint64_t id);
  void end();

  double self_s(Layer layer) const { return self_ns_[layer] * 1e-9; }
  std::uint64_t spans(Layer layer) const { return count_[layer]; }

  /// Adds another tracer's folded totals to this one.
  void merge(const Tracer& other);

  /// The cost folded out of every span, measured once per process: the
  /// median over batches of empty spans recorded under one root.
  static SpanCost span_cost();

 private:
  struct Span {
    Layer layer;
    std::uint32_t parent;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(SpanCost cost) : cost_(cost) {}
  void fold();

  SpanCost cost_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::array<double, kLayerCount> self_ns_{};
  std::array<std::uint64_t, kLayerCount> count_{};
};

/// One span for the lifetime of the scope; a null tracer records nothing,
/// which is how the untraced loops run the same code.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, std::uint64_t id) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer, id);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------- results

/// Latencies and throughput of one closed loop. In process an op is one
/// loop iteration and its jobs are its Engine::run_collect calls; in the
/// service workload an op is one job.
struct LoopSample {
  std::vector<double> op_ms;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  std::vector<double> first_row_ms;
  std::uint64_t runs = 0;
  double wall_s = 0.0;
};

/// What a workload reports: metrics by name (the names main.cpp lists and
/// BENCHMARK.json declares), a note per metric for the report, and the
/// ops the correctness oracle judged.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;

  /// Counts one judged op; an empty `failure` means it passed.
  void judge(const std::string& op, const std::string& failure);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::uint64_t ops = 0;  // timed ops (jobs, for the service workload)
};

/// The whole-loop metrics of a timed loop, runs_per_sec through
/// first_row_ms_p75.
void add_loop_metrics(WorkloadResult& result, const LoopSample& whole);

/// Sets the gated runs_per_sec_best, op_ms_p50_best and
/// cold_job_ms_p50_best, each with `note`. On a shared host an op that ran
/// beside other tenants' load reads slower, so the gate takes the fastest
/// ops a run saw (README.md).
void add_best(WorkloadResult& result, double runs_per_sec, double op_ms,
              double cold_job_ms, const std::string& note);

/// add_best from the best of `blocks`' values. A block is the service's
/// loop cut small: a fifth of its jobs.
void add_best_of_blocks(WorkloadResult& result,
                        const std::vector<LoopSample>& blocks);

/// trace.overhead.*: the traced loop's op and cold-job p50 and warm-job p75
/// minus the untraced loop's.
void add_trace_overhead(WorkloadResult& result, const LoopSample& untraced,
                        const LoopSample& traced);

/// setup_s: the median of the setup repetitions.
void add_setup(WorkloadResult& result, const std::vector<double>& setup_s);

/// A layer's self time, noting its span count.
void add_layer(WorkloadResult& result, const std::string& name,
               const Tracer& tracer, Layer layer);

WorkloadResult run_sweep_workload(const Options& options);
WorkloadResult run_service_workload(const Options& options);

}  // namespace rsb::e2e
