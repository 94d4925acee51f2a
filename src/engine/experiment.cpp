#include "engine/experiment.hpp"

#include <algorithm>

#include "engine/collector.hpp"
#include "engine/registry.hpp"
#include "graph/graph_task.hpp"
#include "graph/topology.hpp"
#include "util/error.hpp"

namespace rsb {

std::string to_string(PortPolicy policy) {
  switch (policy) {
    case PortPolicy::kNone:
      return "none";
    case PortPolicy::kFixed:
      return "fixed";
    case PortPolicy::kCyclic:
      return "cyclic";
    case PortPolicy::kAdversarial:
      return "adversarial";
    case PortPolicy::kRandomPerRun:
      return "random-per-run";
  }
  return "?";
}

Experiment::Backend Experiment::backend() const {
  const bool has_protocol = protocol != nullptr;
  const bool has_factory = static_cast<bool>(factory);
  if (has_protocol == has_factory) {
    throw InvalidArgument(
        has_protocol
            ? "Experiment: both a protocol and an agent factory are "
              "attached; a spec drives exactly one backend"
            : "Experiment: no backend attached (use with_protocol or "
              "with_agents)");
  }
  return has_protocol ? Backend::kProtocol : Backend::kAgents;
}

Experiment Experiment::blackboard(SourceConfiguration config) {
  Experiment spec;
  spec.model = Model::kBlackboard;
  spec.config = std::move(config);
  spec.port_policy = PortPolicy::kNone;
  return spec;
}

Experiment Experiment::message_passing(SourceConfiguration config,
                                       PortPolicy policy) {
  Experiment spec;
  spec.model = Model::kMessagePassing;
  spec.config = std::move(config);
  spec.port_policy = policy;
  return spec;
}

Experiment& Experiment::with_protocol(
    std::shared_ptr<const AnonymousProtocol> p) {
  protocol = std::move(p);
  return *this;
}

Experiment& Experiment::with_protocol(const std::string& name) {
  protocol = make_protocol(name);
  return *this;
}

Experiment& Experiment::with_agents(sim::Network::AgentFactory f) {
  factory = std::move(f);
  return *this;
}

Experiment& Experiment::with_task(SymmetricTask t) {
  task = std::move(t);
  return *this;
}

Experiment& Experiment::with_task(const std::string& name) {
  if (!TaskRegistry::global().contains(name) &&
      graph::GraphTaskRegistry::global().contains(name)) {
    if (topology == nullptr) {
      throw InvalidArgument(
          "graph-task-requires-topology: task '" + name +
          "' checks validity against an instance adjacency; set a "
          "non-clique topology= first");
    }
    task = graph::make_graph_task(name, topology);
    return *this;
  }
  task = make_task(name, config.num_parties());
  return *this;
}

Experiment& Experiment::with_topology(
    std::shared_ptr<const graph::Topology> topo) {
  // Clique normalizes to null: the all-to-all machinery already IS that
  // wiring, and collapsing here makes the byte-identity law structural.
  if (topo != nullptr && topo->kind() == graph::TopologyKind::kClique) {
    topo = nullptr;
  }
  topology = std::move(topo);
  return *this;
}

Experiment& Experiment::with_topology(const std::string& name) {
  return with_topology(
      graph::make_topology(name, config.num_parties(), topology_seed));
}

Experiment& Experiment::with_topology_seed(std::uint64_t seed) {
  topology_seed = seed;
  return *this;
}

Experiment& Experiment::with_ports(PortAssignment ports) {
  port_policy = PortPolicy::kFixed;
  fixed_ports = std::move(ports);
  return *this;
}

Experiment& Experiment::with_port_policy(PortPolicy policy) {
  port_policy = policy;
  return *this;
}

Experiment& Experiment::with_port_seed(std::uint64_t seed) {
  port_seed = seed;
  return *this;
}

Experiment& Experiment::with_variant(MessageVariant v) {
  variant = v;
  return *this;
}

Experiment& Experiment::with_faults(sim::FaultPlan plan) {
  faults = plan;
  return *this;
}

Experiment& Experiment::with_scheduler(sim::SchedulerSpec s) {
  scheduler = std::move(s);
  return *this;
}

Experiment& Experiment::with_rounds(int rounds) {
  max_rounds = rounds;
  return *this;
}

Experiment& Experiment::with_seeds(std::uint64_t first, std::uint64_t count) {
  seeds = SeedRange::of(first, count);
  return *this;
}

Experiment& Experiment::with_seed(std::uint64_t seed) {
  seeds = SeedRange::single(seed);
  return *this;
}

void Experiment::validate() const {
  backend();  // throws on no-backend / two-backend specs
  if (seeds.count == 0) {
    throw InvalidArgument("Experiment: empty seed range");
  }
  if (max_rounds < 1) {
    throw InvalidArgument("Experiment: max_rounds must be >= 1");
  }
  const bool wants_ports = model == Model::kMessagePassing;
  if (wants_ports == (port_policy == PortPolicy::kNone)) {
    throw InvalidArgument(
        "Experiment: ports must be given exactly for message passing");
  }
  if (port_policy == PortPolicy::kFixed) {
    if (!fixed_ports.has_value()) {
      throw InvalidArgument(
          "Experiment: PortPolicy::kFixed requires fixed_ports");
    }
    if (fixed_ports->num_parties() != config.num_parties()) {
      throw InvalidArgument(
          "Experiment: fixed_ports party count does not match the "
          "configuration");
    }
  }
  if (task.has_value() && task->num_parties() != config.num_parties()) {
    throw InvalidArgument(
        "Experiment: task party count does not match the configuration");
  }
  if (topology != nullptr) {
    if (model != Model::kMessagePassing) {
      throw InvalidArgument(
          "topology-requires-message-passing: a sparse topology IS a port "
          "wiring; blackboard specs have none");
    }
    if (backend() != Backend::kAgents) {
      throw InvalidArgument(
          "topology-requires-agent-backend: the knowledge recursion is "
          "defined on the complete graph; run graph workloads with "
          "with_agents");
    }
    if (topology->num_parties() != config.num_parties()) {
      throw InvalidArgument(
          "Experiment: topology party count does not match the "
          "configuration");
    }
    if (port_policy != PortPolicy::kRandomPerRun) {
      throw InvalidArgument(
          "topology-fixes-the-wiring: the graph's canonical port numbering "
          "replaces the port policy; leave the policy at the "
          "message-passing default");
    }
  }
  faults.validate(config.num_parties());
  if (faults.any() && faults.crash_window > max_rounds) {
    throw InvalidArgument(
        "Experiment: crash_window exceeds max_rounds — a victim whose "
        "crash round falls beyond the budget would act alive all run yet "
        "be accounted as crashed");
  }
  scheduler.validate(config.num_parties());
  if (backend() == Backend::kProtocol && !scheduler.is_synchronous()) {
    throw InvalidArgument(
        "Experiment: the knowledge-level backend is round-lockstep by "
        "definition; non-synchronous schedulers need the agent backend "
        "(with_agents)");
  }
}

std::string Experiment::to_string() const {
  std::string out = "spec[" + rsb::to_string(model) + " " + config.to_string();
  if (protocol != nullptr) {
    out += " " + protocol->name();
  } else if (factory) {
    out += " <agents>";
  } else {
    out += " <no backend>";
  }
  if (task.has_value()) out += " task=" + task->name();
  if (model == Model::kMessagePassing) {
    if (topology != nullptr) {
      out += " topology=" + topology->name();
    } else {
      out += " ports=" + rsb::to_string(port_policy);
    }
    if (variant == MessageVariant::kLiteral) out += " variant=literal";
  }
  if (faults.any()) out += " faults=" + faults.to_string();
  if (!scheduler.is_synchronous()) out += " sched=" + scheduler.to_string();
  out += " rounds=" + std::to_string(max_rounds);
  out += " seeds=" + std::to_string(seeds.first) + "+" +
         std::to_string(seeds.count) + "]";
  return out;
}

double RunStats::termination_rate() const {
  return runs == 0 ? 0.0
                   : static_cast<double>(terminated) / static_cast<double>(runs);
}

double RunStats::success_rate() const {
  if (!task_checked) {
    throw InvalidArgument("RunStats::success_rate: no task was attached");
  }
  return runs == 0 ? 0.0
                   : static_cast<double>(task_successes) /
                         static_cast<double>(runs);
}

double RunStats::mean_rounds() const {
  return terminated == 0 ? 0.0
                         : static_cast<double>(total_rounds) /
                               static_cast<double>(terminated);
}

void RunStats::record(const ProtocolOutcome& outcome,
                      const SymmetricTask* task) {
  ++runs;
  const bool faulty = !outcome.crash_round.empty();
  if (outcome.terminated) {
    ++terminated;
    total_rounds += static_cast<std::uint64_t>(outcome.rounds);
    ++round_histogram[outcome.rounds];
  }
  for (std::size_t party = 0; party < outcome.outputs.size(); ++party) {
    if (outcome.decision_round[party] >= 0) {
      ++output_counts[outcome.outputs[party]];
    }
  }
  if (faulty) {
    for (int crash : outcome.crash_round) {
      if (crash >= 0) ++crashed_parties;
    }
  }
  if (task != nullptr) {
    task_checked = true;
    if (outcome.terminated) {
      // Zero-copy admission straight off the outcome: for faulty runs the
      // survivors' outputs only (a crashed party's pre-crash decision does
      // not count — a leader that crashed is a dead leader).
      const bool admitted =
          faulty ? task->admits_surviving_outputs(outcome.outputs,
                                                  outcome.crash_round)
                 : task->admits_outputs(outcome.outputs);
      if (admitted) ++task_successes;
    }
  }
}

void RunStats::observe(const RunView& view, const ProtocolOutcome& outcome) {
  const SymmetricTask* task =
      view.experiment != nullptr && view.experiment->task.has_value()
          ? &*view.experiment->task
          : nullptr;
  record(outcome, task);
}

void RunStats::merge(const RunStats& other) {
  runs += other.runs;
  terminated += other.terminated;
  task_successes += other.task_successes;
  task_checked = task_checked || other.task_checked;
  total_rounds += other.total_rounds;
  crashed_parties += other.crashed_parties;
  for (const auto& [rounds, count] : other.round_histogram) {
    round_histogram[rounds] += count;
  }
  for (const auto& [value, count] : other.output_counts) {
    output_counts[value] += count;
  }
}

std::string RunStats::summary() const {
  char buffer[160];
  if (task_checked) {
    std::snprintf(buffer, sizeof(buffer),
                  "runs=%llu terminated=%.3f success=%.3f mean-rounds=%.2f",
                  static_cast<unsigned long long>(runs), termination_rate(),
                  success_rate(), mean_rounds());
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "runs=%llu terminated=%.3f mean-rounds=%.2f",
                  static_cast<unsigned long long>(runs), termination_rate(),
                  mean_rounds());
  }
  return buffer;
}

}  // namespace rsb
