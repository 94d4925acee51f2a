// The in-process workloads, sweep-short and sweep-long.
//
// One op sweeps each of the workload's three specs once, over fresh seed
// ranges, on one default (serial) Engine: the op's three cold jobs. Each
// loop iteration then repeats the first query as its warm job, timed apart
// from the op. Nothing is cached in process, so the warm job executes
// every run again; it is there so the in-process and service workloads
// report the same metrics. Every job is timed in wall time and in the
// process's CPU time; the gated metrics take each spec's fastest job in CPU
// time (README.md).
//
// The traced run times each run_collect call, then replays the op's sweeps
// run by run through the public calls the engine's scalar path makes at
// this commit (run_prepared in engine/run_context.cpp), one span per call
// per round. The replay doubles as the correctness oracle: its RunStats
// must equal the engine's, job for job. The untraced run checks against a
// lane engine instead.
#include <algorithm>
#include <array>
#include <ctime>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "knowledge/knowledge.hpp"
#include "model/models.hpp"
#include "randomness/source_bank.hpp"
#include "util/rng.hpp"

namespace rsb::e2e {
namespace {

constexpr std::uint64_t kSetups = 5;
/// Jobs per loop iteration: the op's three specs, then the first spec's
/// query again as the warm job.
constexpr std::size_t kJobsPerOp = 4;

/// CPU time the process has used, in ms. A default Engine is serial, so
/// across an op this is the op's wall time less the time the process
/// waited for a core.
double process_cpu_ms() {
  timespec now{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) * 1e-6;
}

struct SweepSpec {
  Experiment spec;
  std::uint64_t count = 0;
  std::uint64_t base = 0;  // first seed of op 0
};

Experiment blackboard_spec(const SourceConfiguration& config,
                           const std::string& protocol) {
  return Experiment::blackboard(config)
      .with_protocol(protocol)
      .with_task("leader-election")
      .with_rounds(300);
}

Experiment message_passing_spec(const SourceConfiguration& config) {
  return Experiment::message_passing(config, PortPolicy::kRandomPerRun)
      .with_protocol("wait-for-singleton-LE")
      .with_task("leader-election")
      .with_rounds(300);
}

/// The workload's specs, built through the registries. Seed ranges come
/// from the workload seed alone; no size depends on it.
std::vector<SweepSpec> make_specs(const std::string& workload,
                                  std::uint64_t seed) {
  std::vector<SweepSpec> specs;
  if (workload == "sweep-short") {
    specs.push_back({blackboard_spec(SourceConfiguration::all_private(6),
                                     "wait-for-singleton-LE"),
                     16384});
    specs.push_back({blackboard_spec(SourceConfiguration::all_private(6),
                                     "blackboard-unique-string-LE"),
                     2048});
    specs.push_back(
        {message_passing_spec(SourceConfiguration::from_loads({2, 3})), 8192});
  } else {
    specs.push_back({blackboard_spec(SourceConfiguration::all_private(64),
                                     "wait-for-singleton-LE"),
                     256});
    // Theorem 4.1: no source has load 1, so every run hits the round cap.
    specs.push_back({blackboard_spec(SourceConfiguration::from_loads({2, 3}),
                                     "wait-for-singleton-LE"),
                     256});
    specs.push_back(
        {message_passing_spec(SourceConfiguration::all_private(16)), 512});
  }
  for (std::size_t s = 0; s < specs.size(); ++s) {
    specs[s].base = (derive_seed(seed, s) >> 28) + 1;
  }
  return specs;
}

/// Job `job` of op `op`: spec job % 3 over that op's seed range.
Experiment job_spec(const std::vector<SweepSpec>& specs, std::uint64_t op,
                    std::size_t job) {
  const SweepSpec& s = specs[job % specs.size()];
  Experiment spec = s.spec;
  spec.seeds = SeedRange::of(s.base + op * s.count, s.count);
  return spec;
}

struct SweepOp {
  std::uint64_t index = 0;
  double op_ms = 0.0;
  std::array<double, kJobsPerOp> job_ms{};
  std::array<double, kJobsPerOp> job_cpu_ms{};
  std::array<RunStats, kJobsPerOp> stats;
  std::uint64_t runs = 0;
};

SweepOp run_op(Engine& engine, const std::vector<SweepSpec>& specs,
               std::uint64_t index, Tracer* tracer) {
  std::array<Experiment, kJobsPerOp> jobs;
  for (std::size_t j = 0; j < kJobsPerOp; ++j) {
    jobs[j] = job_spec(specs, index, j);
  }
  SweepOp op;
  op.index = index;
  Scope root(tracer, kBench, index);
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  double last_cpu_ms = process_cpu_ms();
  for (std::size_t j = 0; j < kJobsPerOp; ++j) {
    {
      Scope span(tracer, kEngineSweep, index);
      op.stats[j] = engine.run_collect(jobs[j], RunStats{});
    }
    const Clock::time_point now = Clock::now();
    const double now_cpu_ms = process_cpu_ms();
    op.job_ms[j] = ms_between(last, now);
    op.job_cpu_ms[j] = now_cpu_ms - last_cpu_ms;
    last = now;
    last_cpu_ms = now_cpu_ms;
    op.runs += jobs[j].seeds.count;
  }
  op.op_ms = ms_between(start, last) - op.job_ms[kJobsPerOp - 1];
  return op;
}

std::vector<SweepOp> run_loop(Engine& engine,
                              const std::vector<SweepSpec>& specs,
                              std::uint64_t first_index, std::uint64_t ops,
                              Tracer* tracer, double& wall_s) {
  std::vector<SweepOp> out;
  out.reserve(ops);
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    out.push_back(run_op(engine, specs, first_index + i, tracer));
  }
  wall_s = seconds_between(start, Clock::now());
  return out;
}

LoopSample sample_of(std::span<const SweepOp> ops, double wall_s) {
  LoopSample sample;
  sample.wall_s = wall_s;
  for (const SweepOp& op : ops) {
    sample.op_ms.push_back(op.op_ms);
    for (std::size_t j = 0; j + 1 < kJobsPerOp; ++j) {
      sample.cold_ms.push_back(op.job_ms[j]);
    }
    sample.warm_ms.push_back(op.job_ms[kJobsPerOp - 1]);
    sample.first_row_ms.push_back(op.job_ms[0]);
    sample.runs += op.runs;
  }
  return sample;
}

/// The gated metrics in process, in CPU time (README.md). Each spec's
/// fastest job in the loop, the warm repeats counting for the first spec,
/// stands for that spec's cost: a fast stretch of the host as long as one
/// job suffices, where a whole op needs one three times as long. The best
/// op is the sum of the specs' fastest jobs, and the best median job the
/// median of them.
void add_fastest_jobs(WorkloadResult& result, std::span<const SweepOp> ops,
                      const std::vector<SweepSpec>& specs) {
  std::vector<double> fastest_ms(specs.size(),
                                 std::numeric_limits<double>::infinity());
  for (const SweepOp& op : ops) {
    for (std::size_t j = 0; j < kJobsPerOp; ++j) {
      double& fastest = fastest_ms[j % specs.size()];
      fastest = std::min(fastest, op.job_cpu_ms[j]);
    }
  }
  double op_ms = 0.0;
  std::uint64_t runs = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    op_ms += fastest_ms[s];
    runs += specs[s].count;
  }
  add_best(result, static_cast<double>(runs) / (op_ms / 1e3), op_ms,
           median(fastest_ms),
           "from each spec's fastest job in " + std::to_string(ops.size()) +
               " ops, CPU time");
}

struct ReplayCounts {
  std::uint64_t bits = 0;
  std::uint64_t values = 0;
  std::uint64_t rounds = 0;
  std::uint64_t decide_calls = 0;
};

/// Re-executes sweeps run by run through the public calls run_prepared
/// makes on its fault-free path, with a span around each call.
class Replayer {
 public:
  RunStats replay(const Experiment& spec, Tracer* tracer, std::uint64_t id);
  const ReplayCounts& counts() const { return counts_; }

 private:
  KnowledgeStore store_;
  std::optional<SourceBank> bank_;
  RoundScratch scratch_;
  std::vector<KnowledgeId> knowledge_;
  std::vector<bool> bits_;
  ProtocolOutcome outcome_;
  ReplayCounts counts_;
};

RunStats Replayer::replay(const Experiment& spec, Tracer* tracer,
                          std::uint64_t id) {
  if (spec.backend() != Experiment::Backend::kProtocol || spec.faults.any() ||
      spec.topology != nullptr) {
    throw std::logic_error(
        "replay covers fault-free knowledge-backend specs only");
  }
  const int n = spec.config.num_parties();
  const std::size_t parties = static_cast<std::size_t>(n);
  const AnonymousProtocol& protocol = *spec.protocol;
  const SymmetricTask* task = spec.task.has_value() ? &*spec.task : nullptr;
  PortProvider ports(spec.model, spec.port_policy, spec.fixed_ports,
                     spec.config, spec.port_seed);
  RunStats stats;
  for (std::uint64_t i = 0; i < spec.seeds.count; ++i) {
    const std::uint64_t seed = spec.seeds.first + i;
    const PortAssignment* assignment = nullptr;
    {
      Scope span(tracer, kEnginePorts, id);
      assignment = ports.next();
    }
    {
      Scope span(tracer, kRandomness, id);
      if (bank_.has_value()) {
        bank_->reset(spec.config, seed);
      } else {
        bank_.emplace(spec.config, seed);
      }
    }
    {
      Scope span(tracer, kKnowledgeReset, id);
      store_.reset();
    }
    knowledge_.assign(parties, store_.bottom());
    outcome_.terminated = false;
    outcome_.rounds = 0;
    outcome_.outputs.assign(parties, 0);
    outcome_.decision_round.assign(parties, -1);
    int undecided = n;
    for (int round = 1; round <= spec.max_rounds && undecided > 0; ++round) {
      {
        Scope span(tracer, kRandomness, id);
        bits_.clear();
        for (int party = 0; party < n; ++party) {
          bits_.push_back(bank_->party_bit(party, round));
        }
      }
      counts_.bits += parties;
      {
        Scope span(tracer, kModelRound, id);
        if (spec.model == Model::kBlackboard) {
          blackboard_round_inplace(store_, knowledge_, bits_, scratch_);
        } else {
          message_round_inplace(store_, knowledge_, bits_, *assignment,
                                spec.variant, scratch_);
        }
      }
      ++counts_.rounds;
      {
        Scope span(tracer, kAlgoDecide, id);
        for (std::size_t p = 0; p < parties; ++p) {
          if (outcome_.decision_round[p] >= 0) continue;
          ++counts_.decide_calls;
          const std::optional<std::int64_t> verdict =
              protocol.decide(store_, knowledge_[p]);
          if (verdict.has_value()) {
            outcome_.outputs[p] = *verdict;
            outcome_.decision_round[p] = round;
            --undecided;
            outcome_.rounds = round;
          }
        }
      }
    }
    outcome_.terminated = undecided == 0;
    counts_.values += store_.size();
    bool admitted = false;
    if (task != nullptr && outcome_.terminated) {
      Scope span(tracer, kTasksAdmit, id);
      admitted = task->admits_outputs(outcome_.outputs);
    }
    // RunStats::record would consult the task itself; the admission is
    // timed above, so record without it and count it the same way.
    stats.record(outcome_, nullptr);
    if (task != nullptr) {
      stats.task_checked = true;
      if (admitted) ++stats.task_successes;
    }
  }
  return stats;
}

/// The oracle: every job's RunStats equals the reference's for the same
/// query, and the warm repeat equals the first job. `reference(spec, id)`
/// is the traced replay, or in the untraced run a lane engine.
template <typename Reference>
void check_op(const SweepOp& op, const std::vector<SweepSpec>& specs,
              Tracer* tracer, Reference&& reference, WorkloadResult& result) {
  std::string failure;
  {
    Scope root(tracer, kBench, op.index);
    for (std::size_t j = 0; j < kJobsPerOp; ++j) {
      const RunStats expected =
          reference(job_spec(specs, op.index, j), op.index);
      if (failure.empty() && !(expected == op.stats[j])) {
        failure = "job " + std::to_string(j) +
                  " RunStats differ from the reference sweep";
      }
    }
  }
  if (failure.empty() && !(op.stats[kJobsPerOp - 1] == op.stats[0])) {
    failure = "the warm repeat differs from the first job";
  }
  result.judge("op " + std::to_string(op.index), failure);
}

}  // namespace

WorkloadResult run_sweep_workload(const Options& options) {
  WorkloadResult result;
  std::vector<SweepSpec> specs;
  std::optional<Engine> engine;
  std::vector<double> setup_s;
  std::vector<SweepOp> timed;
  double wall_s = 0.0;
  // Op indices name seed ranges and only ever grow, so no two ops sweep
  // the same seeds. Each set-up, timed in CPU time like the gated blocks,
  // is followed by one fifth of the timed loop, so set-ups sample the host
  // across the whole run rather than in one burst.
  std::uint64_t next = 0;
  for (std::uint64_t s = 0; s < kSetups; ++s) {
    engine.reset();
    const double start_cpu_ms = process_cpu_ms();
    specs = make_specs(options.workload, options.seed);
    engine.emplace();
    run_op(*engine, specs, next++, nullptr);
    setup_s.push_back((process_cpu_ms() - start_cpu_ms) / 1e3);

    const std::uint64_t count =
        options.ops * (s + 1) / kSetups - options.ops * s / kSetups;
    double part_s = 0.0;
    for (SweepOp& op :
         run_loop(*engine, specs, next, count, nullptr, part_s)) {
      timed.push_back(std::move(op));
    }
    next += count;
    wall_s += part_s;
  }
  add_setup(result, setup_s);
  const LoopSample untraced = sample_of(timed, wall_s);
  add_loop_metrics(result, untraced);
  add_fastest_jobs(result, timed, specs);

  if (!options.trace) {
    // Lanes are a separate execution path, pinned byte-identical to the
    // scalar one, and several times faster than the replay.
    Engine lanes;
    lanes.set_parallel(kReferenceLanes);
    for (const SweepOp& op : timed) {
      check_op(op, specs, nullptr,
               [&lanes](const Experiment& spec, std::uint64_t) {
                 return lanes.run_collect(spec, RunStats{});
               },
               result);
    }
    return result;
  }

  Tracer tracer;
  const std::vector<SweepOp> traced =
      run_loop(*engine, specs, next, options.ops, &tracer, wall_s);
  add_trace_overhead(result, untraced, sample_of(traced, wall_s));
  Replayer replayer;
  for (const SweepOp& op : traced) {
    check_op(op, specs, &tracer,
             [&replayer, &tracer](const Experiment& spec, std::uint64_t id) {
               return replayer.replay(spec, &tracer, id);
             },
             result);
  }

  const ReplayCounts& counts = replayer.counts();
  add_layer(result, "randomness.self_s", tracer, kRandomness);
  result.values["randomness.bits"] = static_cast<double>(counts.bits);
  add_layer(result, "knowledge.reset_s", tracer, kKnowledgeReset);
  result.values["knowledge.values"] = static_cast<double>(counts.values);
  result.values["engine.store_high_water"] =
      static_cast<double>(engine->store_high_water());
  add_layer(result, "model.round_s", tracer, kModelRound);
  result.values["model.rounds"] = static_cast<double>(counts.rounds);
  add_layer(result, "algo.decide_s", tracer, kAlgoDecide);
  result.values["algo.decide_calls"] = static_cast<double>(counts.decide_calls);
  add_layer(result, "tasks.admit_s", tracer, kTasksAdmit);
  add_layer(result, "engine.sweep_s", tracer, kEngineSweep);
  add_layer(result, "engine.ports_s", tracer, kEnginePorts);
  double layers = 0.0;
  for (const Layer layer : {kRandomness, kKnowledgeReset, kModelRound,
                            kAlgoDecide, kTasksAdmit, kEnginePorts}) {
    layers += tracer.self_s(layer);
  }
  result.values["engine.other_s"] = tracer.self_s(kEngineSweep) - layers;
  result.values["engine.orbit.hits"] =
      static_cast<double>(engine->orbit_hits());
  result.values["engine.orbit.reps"] =
      static_cast<double>(engine->orbit_reps());
  return result;
}

}  // namespace rsb::e2e
