// The end-to-end benchmark binary; README.md beside this file describes the
// workloads, the metrics and the layer map.
//
//   e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//   e2ebench --list
//
// --trace 0 runs the workload's closed loop and reports the end-to-end
// metrics; --trace 1 runs the same loop untraced, then again with spans,
// and reports the per-layer metrics, the tracing overhead among them. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the lines before it are a human-readable report.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace rsb::e2e {

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] +
         (sample[hi] - sample[lo]) * (pos - static_cast<double>(lo));
}

Tail tail_of(std::vector<double> sample) {
  Tail tail;
  tail.samples = sample.size();
  if (sample.empty()) return tail;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  if (n <= 10) {
    tail.value = sample.back();
    return tail;
  }
  // p = floor(100 (n - 10) / n) keeps the nearest rank ceil(p n / 100)
  // at most n - 10, so at least ten samples lie above it.
  tail.percentile = static_cast<int>(100 * (n - 10) / n);
  const std::size_t rank =
      (static_cast<std::size_t>(tail.percentile) * n + 99) / 100;
  tail.value = sample[std::max<std::size_t>(rank, 1) - 1];
  return tail;
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void add_quantile(WorkloadResult& result, const std::string& name,
                  const std::vector<double>& sample, double q) {
  result.values[name] = quantile(sample, q);
  result.notes[name] = "of " + std::to_string(sample.size()) + " samples";
}

void add_tail(WorkloadResult& result, const std::string& name,
              const std::vector<double>& sample) {
  const Tail tail = tail_of(sample);
  result.values[name] = tail.value;
  std::string& note = result.notes[name];
  note = tail.samples > 10 ? "p" : "max";
  if (tail.samples > 10) note += std::to_string(tail.percentile);
  note += " of ";
  note += std::to_string(tail.samples);
  note += " samples";
}

}  // namespace

void Tracer::begin(Layer layer, std::uint64_t id) {
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  open_.push_back(static_cast<std::uint32_t>(spans_.size()));
  spans_.push_back(Span{layer, parent, id, now_ns(), 0});
}

void Tracer::end() {
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
  if (open_.empty()) fold();
}

void Tracer::fold() {
  for (const Span& span : spans_) {
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    self_ns_[span.layer] += duration - cost_.inner_ns;
    ++count_[span.layer];
    if (span.parent != kNoParent) {
      self_ns_[spans_[span.parent].layer] -= duration + cost_.outer_ns;
    }
  }
  spans_.clear();
}

SpanCost Tracer::span_cost() {
  static const SpanCost cost = [] {
    constexpr int kBatches = 9;
    constexpr int kSpans = 4096;
    std::vector<double> inner, outer;
    for (int batch = 0; batch < kBatches; ++batch) {
      Tracer raw{SpanCost{}};
      raw.spans_.reserve(kSpans + 1);
      raw.begin(kBench, 0);
      for (int i = 0; i < kSpans; ++i) {
        raw.begin(kRandomness, 0);
        raw.end();
      }
      raw.end();
      inner.push_back(raw.self_ns_[kRandomness] / kSpans);
      outer.push_back(raw.self_ns_[kBench] / kSpans);
    }
    return SpanCost{median(inner), median(outer)};
  }();
  return cost;
}

void Tracer::merge(const Tracer& other) {
  for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
    self_ns_[layer] += other.self_ns_[layer];
    count_[layer] += other.count_[layer];
  }
}

void WorkloadResult::judge(const std::string& op, const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  failures.push_back(op + ": " + failure);
}

double runs_per_sec(const LoopSample& sample) {
  return sample.wall_s > 0.0 ? static_cast<double>(sample.runs) / sample.wall_s
                             : 0.0;
}

void add_loop_metrics(WorkloadResult& result, const LoopSample& whole) {
  result.values["runs_per_sec"] = runs_per_sec(whole);
  result.notes["runs_per_sec"] = std::to_string(whole.runs) + " runs";
  add_quantile(result, "op_ms_p50", whole.op_ms, 0.5);
  add_tail(result, "op_ms_tail", whole.op_ms);
  add_quantile(result, "cold_job_ms_p50", whole.cold_ms, 0.5);
  add_tail(result, "cold_job_ms_tail", whole.cold_ms);
  // Warm and first-row latencies take p75, not p50: at this commit they
  // mix a ~1 ms path with a ~40 ms socket wait in a proportion that moves
  // from run to run, so their median has no stable value (README.md).
  add_quantile(result, "warm_job_ms_p75", whole.warm_ms, 0.75);
  add_tail(result, "warm_job_ms_tail", whole.warm_ms);
  add_quantile(result, "first_row_ms_p75", whole.first_row_ms, 0.75);
}

void add_best(WorkloadResult& result, double runs_per_sec, double op_ms,
              double cold_job_ms, const std::string& note) {
  result.values["runs_per_sec_best"] = runs_per_sec;
  result.values["op_ms_p50_best"] = op_ms;
  result.values["cold_job_ms_p50_best"] = cold_job_ms;
  for (const char* name :
       {"runs_per_sec_best", "op_ms_p50_best", "cold_job_ms_p50_best"}) {
    result.notes[name] = note;
  }
}

void add_best_of_blocks(WorkloadResult& result,
                        const std::vector<LoopSample>& blocks) {
  double rate = 0.0;
  double op_ms = 0.0;
  double cold_ms = 0.0;
  for (const LoopSample& block : blocks) {
    rate = std::max(rate, runs_per_sec(block));
    if (!block.op_ms.empty() && (op_ms == 0.0 || median(block.op_ms) < op_ms)) {
      op_ms = median(block.op_ms);
    }
    if (!block.cold_ms.empty() &&
        (cold_ms == 0.0 || median(block.cold_ms) < cold_ms)) {
      cold_ms = median(block.cold_ms);
    }
  }
  add_best(result, rate, op_ms, cold_ms,
           "best of " + std::to_string(blocks.size()) + " blocks");
}

void add_trace_overhead(WorkloadResult& result, const LoopSample& untraced,
                        const LoopSample& traced) {
  result.values["trace.overhead.op_ms_p50"] =
      median(traced.op_ms) - median(untraced.op_ms);
  result.values["trace.overhead.cold_job_ms_p50"] =
      median(traced.cold_ms) - median(untraced.cold_ms);
  result.values["trace.overhead.warm_job_ms_p75"] =
      quantile(traced.warm_ms, 0.75) - quantile(untraced.warm_ms, 0.75);
}

void add_setup(WorkloadResult& result, const std::vector<double>& setup_s) {
  result.values["setup_s"] = median(setup_s);
  result.notes["setup_s"] =
      "median of " + std::to_string(setup_s.size()) + " setups";
}

void add_layer(WorkloadResult& result, const std::string& name,
               const Tracer& tracer, Layer layer) {
  result.values[name] = tracer.self_s(layer);
  result.notes[name] = std::to_string(tracer.spans(layer)) + " spans";
}

}  // namespace rsb::e2e

namespace {

using namespace rsb::e2e;

struct WorkloadInfo {
  const char* name;
  /// Ops per second of the timed loop at this commit (Release build, shared
  /// 4-vCPU x86-64 VM; service-mix counts jobs). The loop runs
  /// ceil(seconds × rate) ops, so a run there measures about --seconds
  /// seconds, and every seed runs the same number of equally sized ops.
  double ops_per_second;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"sweep-short", 7.5},
    {"sweep-long", 8.3},
    {"service-mix", 9.5},
};
constexpr std::uint64_t kMinOps = 12;
constexpr std::uint64_t kDefaultSeed = 1;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics: those whose run-to-run spread on a shared
/// host stays within the largest bound a benchmark may set (README.md).
constexpr MetricDef kEndToEnd[] = {
    {"runs_per_sec_best", "runs/s"},
    {"op_ms_p50_best", "ms"},
    {"cold_job_ms_p50_best", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
};

/// Ungated: the whole loop's metrics, which follow the share of ops that
/// ran beside other tenants' load; then the layers, host context and
/// tracing overhead.
constexpr MetricDef kPerLayer[] = {
    {"runs_per_sec", "runs/s"},
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"cold_job_ms_p50", "ms"},
    {"cold_job_ms_tail", "ms"},
    {"warm_job_ms_p75", "ms"},
    {"warm_job_ms_tail", "ms"},
    {"first_row_ms_p75", "ms"},
    {"randomness.self_s", "s"},
    {"randomness.bits", "count"},
    {"knowledge.reset_s", "s"},
    {"knowledge.values", "count"},
    {"engine.store_high_water", "count"},
    {"model.round_s", "s"},
    {"model.rounds", "count"},
    {"algo.decide_s", "s"},
    {"algo.decide_calls", "count"},
    {"tasks.admit_s", "s"},
    {"engine.sweep_s", "s"},
    {"engine.ports_s", "s"},
    {"engine.other_s", "s"},
    {"engine.orbit.hits", "count"},
    {"engine.orbit.reps", "count"},
    {"engine.orbit.hit_ratio", "ratio"},
    {"service.rows.run_chunk_s", "s"},
    {"service.canonical.expand_s", "s"},
    {"service.cache.lookup_s", "s"},
    {"service.cache.hits", "count"},
    {"service.cache.misses", "count"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.cache.evictions", "count"},
    {"service.rows.serialize_s", "s"},
    {"service.rows.bytes", "bytes"},
    {"service.json.parse_s", "s"},
    {"service.server.admit_ms_p50", "ms"},
    {"service.server.queue_ms_p50", "ms"},
    {"service.server.row_gap_ms_p50", "ms"},
    {"service.client.wait_s", "s"},
    {"service.server.runs_executed", "count"},
    {"service.server.runs_cached", "count"},
    {"service.server.runs_deduped", "count"},
    {"service.server.open_fds", "count"},
    {"service.server.threads", "count"},
    {"host.spin_ms", "ms"},
    {"host.spin_spread", "ratio"},
    {"host.effective_cores", "cores"},
    {"trace.overhead.op_ms_p50", "ms"},
    {"trace.overhead.cold_job_ms_p50", "ms"},
    {"trace.overhead.warm_job_ms_p75", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1]\n       e2ebench --list\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv, bool& list) {
  Options options;
  options.seed = kDefaultSeed;
  options.seconds = 15.0;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list") {
      list = true;
      continue;
    }
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + flag);
    }
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!list && options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    usage("--seconds must lie in (0, 600]");
  }
  return options;
}

/// A fixed integer kernel that calls nothing in the library.
std::uint64_t spin_kernel(std::uint64_t iterations, std::uint64_t salt) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ salt;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * (i | 1);
  }
  return acc;
}

std::atomic<std::uint64_t> g_sink{0};

/// Host context, recorded beside every result and never used to scale a
/// metric: the spin kernel's median pass time and quartile spread, and the
/// effective core count (nproc x one thread's time / nproc threads' time).
void probe_host(WorkloadResult& result) {
  constexpr std::uint64_t kIterations = 4'000'000;
  constexpr int kPasses = 15;
  std::vector<double> passes;
  for (int pass = 0; pass < kPasses; ++pass) {
    const Clock::time_point start = Clock::now();
    g_sink.fetch_add(spin_kernel(kIterations, static_cast<std::uint64_t>(pass)),
                     std::memory_order_relaxed);
    passes.push_back(ms_between(start, Clock::now()));
  }
  const double spin_ms = median(passes);
  result.values["host.spin_ms"] = spin_ms;
  result.notes["host.spin_ms"] = "median of " + std::to_string(kPasses);
  result.values["host.spin_spread"] =
      (quantile(passes, 0.75) - quantile(passes, 0.25)) / spin_ms;

  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = hw == 0 ? 1 : static_cast<int>(hw);
  std::vector<double> ratios;
  for (int trial = 0; trial < 3; ++trial) {
    Clock::time_point start = Clock::now();
    g_sink.fetch_add(spin_kernel(kIterations, 100), std::memory_order_relaxed);
    const double one = seconds_between(start, Clock::now());
    start = Clock::now();
    std::vector<std::thread> pool;
    try {
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([t] {
          g_sink.fetch_add(spin_kernel(kIterations, static_cast<std::uint64_t>(t)),
                           std::memory_order_relaxed);
        });
      }
    } catch (...) {
      for (std::thread& thread : pool) thread.join();
      throw;
    }
    for (std::thread& thread : pool) thread.join();
    const double all = seconds_between(start, Clock::now());
    ratios.push_back(static_cast<double>(threads) * one / all);
  }
  result.values["host.effective_cores"] = median(ratios);
  result.notes["host.effective_cores"] =
      "of " + std::to_string(threads) + " hardware threads";
}

/// VmHWM from /proc/self/status. getrusage's ru_maxrss would not do: Linux
/// carries it across execve, so it reports the launching process's peak
/// whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_metric(const WorkloadResult& result, const MetricDef& metric) {
  const auto value = result.values.find(metric.name);
  if (value == result.values.end()) return;
  const auto note = result.notes.find(metric.name);
  std::printf("  %-34s %16.6f %-7s %s\n", metric.name, value->second,
              metric.unit,
              note == result.notes.end() ? "" : note->second.c_str());
}

void print_report(const Options& options, const WorkloadResult& result) {
  std::printf("end-to-end%s:\n",
              options.trace ? " (the untraced loop of this traced run)" : "");
  for (const MetricDef& metric : kEndToEnd) print_metric(result, metric);
  if (options.trace) {
    const SpanCost cost = Tracer::span_cost();
    std::printf("per-layer (self times less %.1f ns per span, %.1f ns per "
                "child span from its parent):\n",
                cost.inner_ns, cost.outer_ns);
  } else {
    std::printf("ungated (--trace 1 adds the layers):\n");
  }
  for (const MetricDef& metric : kPerLayer) print_metric(result, metric);
  for (std::size_t i = 0; i < result.failures.size() && i < 20; ++i) {
    std::fprintf(stderr, "e2ebench: failed %s\n", result.failures[i].c_str());
  }

  const std::span<const MetricDef> reported =
      options.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
  std::string line = "{\"correct\": ";
  line += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const auto value = result.values.find(reported[i].name);
    if (i != 0) line += ", ";
    line += '"';
    line += reported[i].name;
    line += "\": {\"value\": ";
    line += json_number(value == result.values.end() ? 0.0 : value->second);
    line += ", \"unit\": \"";
    line += reported[i].unit;
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool list = false;
    Options options = parse_args(argc, argv, list);
    if (list) {
      for (const WorkloadInfo& workload : kWorkloads) {
        std::printf("workload %s\n", workload.name);
      }
      for (const MetricDef& metric : kEndToEnd) {
        std::printf("end_to_end %s %s\n", metric.name, metric.unit);
      }
      for (const MetricDef& metric : kPerLayer) {
        std::printf("per_layer %s %s\n", metric.name, metric.unit);
      }
      return 0;
    }
    const WorkloadInfo* info = nullptr;
    for (const WorkloadInfo& workload : kWorkloads) {
      if (options.workload == workload.name) info = &workload;
    }
    if (info == nullptr) usage("unknown workload '" + options.workload + "'");
    options.ops = std::max<std::uint64_t>(
        kMinOps, static_cast<std::uint64_t>(
                     std::ceil(options.seconds * info->ops_per_second)));
    std::printf("e2ebench workload=%s seed=%llu (default %llu) ops=%llu "
                "trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(kDefaultSeed),
                static_cast<unsigned long long>(options.ops),
                options.trace ? 1 : 0);

    WorkloadResult result = options.workload == "service-mix"
                                ? run_service_workload(options)
                                : run_sweep_workload(options);
    // Probed after the workload, whose set-up it would otherwise perturb.
    probe_host(result);
    if (options.trace) {
      const double hits = result.values["engine.orbit.hits"];
      const double reps = result.values["engine.orbit.reps"];
      result.values["engine.orbit.hit_ratio"] =
          hits + reps > 0.0 ? hits / (hits + reps) : 0.0;
      for (const char* name :
           {"engine.orbit.hits", "engine.orbit.reps", "engine.orbit.hit_ratio"}) {
        result.notes[name] = "depends on thread scheduling";
      }
    }
    result.values["peak_rss_mb"] = peak_rss_mb();
    result.values["ok_ratio"] =
        result.attempted > 0
            ? static_cast<double>(result.attempted - result.failed) /
                  static_cast<double>(result.attempted)
            : 0.0;
    result.notes["ok_ratio"] = std::to_string(result.failed) + " of " +
                               std::to_string(result.attempted) +
                               " ops failed";
    print_report(options, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
