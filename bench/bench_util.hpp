// Shared helpers for the reproduction benches.
//
// Every bench binary prints the paper artifact it regenerates (a table or
// series, with PASS/FAIL shape checks against the paper's claim) and then
// runs its google-benchmark timings. The PASS/FAIL lines make
// bench_output.txt a self-contained record of paper-vs-measured.
//
// Reporting goes through ResultTable (engine/report.hpp): report_table()
// prints a table and records it, and footer("name") persists every
// recorded table to TABLE_<name>_<table>.csv plus the throughput table —
// runs/sec of every engine sweep at 1 and N threads — to
// BENCH_<name>.json, the machine-readable perf trajectory diffed across
// PRs (CI uploads both as workflow artifacts).
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/report.hpp"
#include "service/json.hpp"

namespace rsb::bench {

inline int& failure_count() {
  static int failures = 0;
  return failures;
}

/// Prints a PASS/FAIL line for a shape check and records failures.
inline void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failure_count();
}

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void subheader(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

inline std::string loads_to_string(const std::vector<int>& loads) {
  std::string out = "{";
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(loads[i]);
  }
  return out + "}";
}

inline int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// ---------------------------------------------------- table recording

/// Every table reported during the run, dumped to CSV by footer().
inline std::vector<ResultTable>& recorded_tables() {
  static std::vector<ResultTable> tables;
  return tables;
}

/// Prints the table (indented, aligned) and records it for footer()'s
/// CSV dump.
inline void report_table(const ResultTable& table) {
  const std::string text = table.to_text();
  std::string line;
  for (char c : text) {
    if (c == '\n') {
      std::printf("  %s\n", line.c_str());
      line.clear();
    } else {
      line += c;
    }
  }
  recorded_tables().push_back(table);
}

// ------------------------------------------------- throughput recording

/// One engine-sweep timing per row: `runs` seed-runs completed in
/// `pass_ns` of `clock` time on `threads` worker threads.
inline ResultTable& throughput_table() {
  static ResultTable table("throughput");
  return table;
}

/// CPU time this process has used, in ns. For a serial sweep that is its
/// wall time less the time it waited for a core, so a busy shared host
/// stretches the wall clock but not this one.
inline double process_cpu_ns() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e9 +
         static_cast<double>(now.tv_nsec);
}

inline double wall_clock_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Passes a single-thread row keeps the fastest of.
inline constexpr int kSerialPasses = 8;

/// Times fn() — which must perform exactly `runs` engine runs per call —
/// and prints + records the resulting runs/sec. Returns the rate. A
/// single-thread row is timed in process CPU time and keeps the fastest of
/// kSerialPasses passes: sweeps complete in milliseconds, and the
/// --baseline gate needs the code's repeatable best, not the host's load
/// (the first pass doubles as cache warmup). A multi-thread row keeps the
/// fastest wall-clock time of 3 passes — its CPU time sums the workers'.
template <typename Fn>
inline double time_runs(const std::string& name, std::uint64_t runs,
                        int threads, Fn&& fn) {
  const bool serial = threads == 1;
  const auto now = serial ? process_cpu_ns : wall_clock_ns;
  double best_ns = 0.0;
  for (int pass = 0; pass < (serial ? kSerialPasses : 3); ++pass) {
    const double start = now();
    fn();
    const double pass_ns = now() - start;
    if (pass == 0 || pass_ns < best_ns) best_ns = pass_ns;
  }
  const double rate = best_ns > 0.0
                          ? static_cast<double>(runs) / (best_ns * 1e-9)
                          : 0.0;
  throughput_table()
      .add_row()
      .set("name", name)
      .set("runs", runs)
      .set("pass_ns", best_ns)
      .set("clock", serial ? "process-cpu" : "wall")
      .set("runs_per_sec", rate)
      .set("threads", threads);
  std::printf("  %-44s threads=%-2d %8llu runs %12.0f runs/sec\n",
              name.c_str(), threads, static_cast<unsigned long long>(runs),
              rate);
  return rate;
}

/// Times `sweep(engine)` — which must perform `runs` engine runs — on a
/// serial engine and (when the host has more than one hardware thread) on
/// a full-concurrency engine, recording runs/sec for each. Returns the
/// parallel/serial speedup (1.0 on a single-core host).
template <typename Sweep>
inline double sweep_throughput(const std::string& name, std::uint64_t runs,
                               Sweep&& sweep) {
  Engine serial;
  const double serial_rate = time_runs(name, runs, 1, [&] { sweep(serial); });
  const int hw = hardware_threads();
  if (hw <= 1) return 1.0;
  Engine parallel;
  parallel.with_threads(0);
  const double parallel_rate =
      time_runs(name, runs, hw, [&] { sweep(parallel); });
  return serial_rate > 0.0 ? parallel_rate / serial_rate : 0.0;
}

/// sweep_throughput over a spec of either backend (one Experiment type
/// drives both the knowledge-level and the agent-level path).
inline double engine_throughput(const std::string& name,
                                const Experiment& spec) {
  return sweep_throughput(name, spec.seeds.count,
                          [&spec](Engine& engine) { engine.run_batch(spec); });
}

// ------------------------------------------- baseline regression gate

/// The --baseline file consumed by consume_baseline_flag, if any.
inline std::string& baseline_path() {
  static std::string path;
  return path;
}

/// Throughput regressions beyond this fraction fail the bench binary.
inline constexpr double kBaselineRegressionTolerance = 0.25;

/// The --baseline gate's yardstick: passes per second of a fixed integer
/// kernel, measured in this process (memoized). The gate divides every
/// measured rate by the median, so what is compared across machines is
/// the *ratio* of bench throughput to kernel throughput — a property of the
/// code — rather than absolute runs/sec, a property of the host. The
/// kernel calls nothing in src/: were it a sweep through the engine under
/// test, a change that sped up or slowed down the whole engine would move
/// the yardstick with the gated rows and cancel out. footer() records the
/// median and quartiles in BENCH_<name>.json meta, so a baseline captured
/// on one machine gates runs on another and the host's noise is on record.
struct Calibration {
  double median = 0.0;  // kernel passes/sec
  double q1 = 0.0;
  double q3 = 0.0;
};

/// One kernel pass: splitmix-style mixing chained through dependent loads
/// and stores over a 128 KiB table — the ALU-plus-cache-probe shape of the
/// engine's coin draws and intern-table probes, fixed forever. `table` is
/// caller-owned so no pass pays for an allocation; it is refilled from
/// `seed` first, so every pass does identical work. Returns a value that
/// depends on every step so the work cannot be elided.
inline std::uint64_t calibration_kernel(std::vector<std::uint64_t>& table,
                                        std::uint64_t seed) {
  constexpr std::size_t kWords = std::size_t{1} << 14;
  constexpr int kSteps = 1 << 16;
  table.resize(kWords);
  std::uint64_t x = seed;
  for (std::uint64_t& word : table) {
    x += 0x9e3779b97f4a7c15ull;
    word = x;
  }
  for (int step = 0; step < kSteps; ++step) {
    x ^= table[x & (kWords - 1)];
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    table[(x >> 17) & (kWords - 1)] += x;
  }
  return x;
}

/// The median and quartiles of kPasses kernel passes, after one untimed
/// warmup pass, timed in process CPU time like the gated single-thread
/// rows it divides.
inline const Calibration& calibration() {
  static const Calibration measured = [] {
    constexpr int kPasses = 21;
    std::vector<std::uint64_t> table;
    // The seed is read through a volatile so the kernel's input is a run-
    // time value; the sink keeps its result live.
    volatile std::uint64_t seed = 1;
    volatile std::uint64_t sink = calibration_kernel(table, seed);
    std::vector<double> rates;
    for (int pass = 0; pass < kPasses; ++pass) {
      const double start = process_cpu_ns();
      sink = sink + calibration_kernel(table, seed);
      const double pass_ns = process_cpu_ns() - start;
      rates.push_back(pass_ns > 0.0 ? 1e9 / pass_ns : 0.0);
    }
    std::sort(rates.begin(), rates.end());
    return Calibration{rates[kPasses / 2], rates[kPasses / 4],
                       rates[3 * kPasses / 4]};
  }();
  return measured;
}

/// Strips a `--baseline <file>` or `--baseline=<file>` flag from argv.
/// Call BEFORE benchmark::Initialize (google-benchmark rejects unknown
/// flags). When set, footer() compares this run's throughput table
/// against the recorded BENCH_<name>.json: any single-thread row whose
/// runs/sec falls more than 25% below its baseline row (matched by name)
/// is a shape-check failure, so the binary exits non-zero — the CI bench
/// smoke job runs Release benches against the committed baselines with
/// exactly this flag. Multi-thread rows are reported but not gated: on a
/// shared CI host their wall clock is not a property of the code.
inline void consume_baseline_flag(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    std::string value;
    int consumed = 0;
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < *argc) {
      value = argv[i + 1];
      consumed = 2;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      value = argv[i] + 11;
      consumed = 1;
    }
    if (consumed == 0) continue;
    baseline_path() = value;
    for (int j = i; j + consumed < *argc; ++j) argv[j] = argv[j + consumed];
    *argc -= consumed;
    return;
  }
}

/// One row of a BENCH_<name>.json throughput table.
struct BaselineRow {
  std::string name;
  double runs_per_sec = 0.0;
  int threads = 0;
};

/// Reads the throughput table ResultTable::write_json emits ("columns":
/// [...], "rows": [[...], ...]) through the service layer's JSON parser.
/// Returns false (and the gate reports a failure) when the file is missing
/// or malformed — a silently skipped gate would read as a pass. Rows too
/// short to hold the name, rate and thread columns are skipped.
/// `calibration_out` receives the baseline's recorded
/// calibration_kernel_per_sec meta, or 0 when the file predates the kernel
/// calibration.
inline bool load_baseline(const std::string& path,
                          std::vector<BaselineRow>& rows,
                          double* calibration_out = nullptr) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    using service::json::Value;
    const Value table = Value::parse(buffer.str());
    if (calibration_out != nullptr) {
      const Value* meta = table.find("meta");
      const Value* kernel =
          meta != nullptr ? meta->find("calibration_kernel_per_sec") : nullptr;
      *calibration_out = kernel != nullptr ? std::stod(kernel->raw_number())
                                           : 0.0;
    }
    const Value* columns = table.find("columns");
    const Value* cells = table.find("rows");
    if (columns == nullptr || cells == nullptr) return false;
    std::vector<std::string> names;
    for (const Value& column : columns->items()) {
      names.push_back(column.as_string());
    }
    const auto index_of = [&names](const char* column) {
      return static_cast<std::size_t>(
          std::find(names.begin(), names.end(), column) - names.begin());
    };
    const std::size_t name_col = index_of("name");
    const std::size_t rate_col = index_of("runs_per_sec");
    const std::size_t threads_col = index_of("threads");
    const std::size_t last = std::max({name_col, rate_col, threads_col});
    if (last >= names.size()) return false;
    for (const Value& row : cells->items()) {
      const std::vector<Value>& cell = row.items();
      if (cell.size() <= last) continue;
      rows.push_back(BaselineRow{
          cell[name_col].as_string(),
          std::stod(cell[rate_col].raw_number()),
          static_cast<int>(cell[threads_col].as_int())});
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Applies the --baseline gate against this run's throughput table.
///
/// When the baseline file carries a kernel calibration, the gate compares
/// *calibration-normalized* throughput (rate divided by the same-process
/// kernel rate), so a baseline recorded on a fast workstation still gates
/// a slow CI runner — only genuine code regressions move the ratio.
/// A baseline without the kernel meta is a named gate failure.
inline void check_against_baseline() {
  const std::string& path = baseline_path();
  if (path.empty()) return;
  subheader("baseline throughput gate (" + path + ")");
  std::vector<BaselineRow> baseline;
  double baseline_calibration = 0.0;
  if (!load_baseline(path, baseline, &baseline_calibration)) {
    check(false, "baseline file readable: " + path);
    return;
  }
  if (baseline_calibration <= 0.0) {
    check(false, "baseline carries calibration_kernel_per_sec: " + path);
    return;
  }
  const Calibration& here = calibration();
  std::printf("  calibration kernel: %.1f passes/sec here (quartiles "
              "%.1f-%.1f) vs %.1f in baseline (gating normalized ratios)\n",
              here.median, here.q1, here.q3, baseline_calibration);
  const ResultTable& current = throughput_table();
  const auto cell_string = [&current](std::size_t r, const char* column) {
    const ResultTable::Cell& cell = current.at(r, column);
    const std::string* value = std::get_if<std::string>(&cell);
    return value != nullptr ? *value : std::string();
  };
  const auto cell_number = [&current](std::size_t r, const char* column) {
    const ResultTable::Cell& cell = current.at(r, column);
    if (const double* d = std::get_if<double>(&cell)) return *d;
    if (const std::int64_t* i = std::get_if<std::int64_t>(&cell)) {
      return static_cast<double>(*i);
    }
    return 0.0;
  };
  bool any_gated = false;
  for (const BaselineRow& expected : baseline) {
    if (expected.threads != 1) continue;  // multi-thread rows: not gated
    bool found = false;
    for (std::size_t r = 0; r < current.num_rows(); ++r) {
      if (cell_string(r, "name") != expected.name) continue;
      if (cell_number(r, "threads") != 1.0) continue;
      found = true;
      any_gated = true;
      const double rate = cell_number(r, "runs_per_sec");
      const double measured_ratio = rate / here.median;
      const double expected_ratio =
          expected.runs_per_sec / baseline_calibration;
      const double floor =
          expected_ratio * (1.0 - kBaselineRegressionTolerance);
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s: %.4gx calibration vs baseline %.4gx (floor "
                    "%.4gx; %.0f runs/sec raw)",
                    expected.name.c_str(), measured_ratio, expected_ratio,
                    floor, rate);
      check(measured_ratio >= floor, line);
      break;
    }
    if (!found) {
      check(false, "baseline row present in this run: " + expected.name);
    }
  }
  if (!any_gated) {
    check(false, "baseline gate matched at least one single-thread row");
  }
}

/// Prints the shape-check verdict; when `name` is given, persists the
/// throughput table to BENCH_<name>.json and every recorded table to
/// TABLE_<name>_<table>.csv in the working directory, then applies the
/// --baseline regression gate (consume_baseline_flag) if one was given.
inline void footer(const std::string& name = "") {
  if (!name.empty()) {
    check_against_baseline();
    ResultTable& throughput = throughput_table();
    throughput.set_meta("bench", name)
        .set_meta("failures", std::int64_t{failure_count()})
        .set_meta("hardware_threads", std::int64_t{hardware_threads()})
        .set_meta("calibration_kernel_per_sec", calibration().median)
        .set_meta("calibration_kernel_q1", calibration().q1)
        .set_meta("calibration_kernel_q3", calibration().q3);
    const std::string json_path = "BENCH_" + name + ".json";
    if (throughput.write_json(json_path)) {
      std::printf("  throughput JSON -> %s (%zu rows)\n", json_path.c_str(),
                  throughput.num_rows());
    }
    for (const ResultTable& table : recorded_tables()) {
      const std::string csv_path =
          "TABLE_" + name + "_" + table.name() + ".csv";
      if (table.write_csv(csv_path)) {
        std::printf("  table CSV -> %s (%zu rows)\n", csv_path.c_str(),
                    table.num_rows());
      }
    }
  }
  if (failure_count() == 0) {
    std::printf("\nAll shape checks PASSED.\n\n");
  } else {
    std::printf("\n%d shape check(s) FAILED.\n\n", failure_count());
  }
}

}  // namespace rsb::bench
