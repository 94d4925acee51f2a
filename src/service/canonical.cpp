#include "service/canonical.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <string_view>

#include "engine/registry.hpp"
#include "graph/agents.hpp"
#include "graph/topology.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rsb::service {

namespace {

// The complete wire vocabulary, sorted — canonical_text() emits in exactly
// this order and parse() rejects anything else by listing it.
constexpr const char* kKeys[] = {
    "adaptive-budget", "agents",     "batch",      "fault-crashes",
    "fault-seed",      "fault-window", "loads",    "model",
    "orbit",           "pilot",      "port-policy", "port-seed",
    "ports",           "protocol",   "rounds",     "sched",
    "sched-seed",      "seeds",      "task",       "topology",
    "topology-seed",   "variant",
};

std::string known_keys() {
  std::string out;
  for (const char* key : kKeys) {
    if (!out.empty()) out += ", ";
    out += key;
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t begin = 0, end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

/// Splits `text` at every character of `separators`, trimming each piece;
/// empty pieces are kept, so "a,,b" yields three.
std::vector<std::string> split_trimmed(std::string_view text,
                                       std::string_view separators) {
  std::vector<std::string> pieces;
  std::size_t pos = 0;
  while (true) {
    const std::size_t end =
        std::min(text.find_first_of(separators, pos), text.size());
    pieces.push_back(trim(text.substr(pos, end - pos)));
    if (end == text.size()) return pieces;
    pos = end + 1;
  }
}

/// The spec-line scanner: the non-empty lines of a spec text (split at
/// newlines and semicolons, '#' comments cut, whitespace trimmed).
std::vector<std::string> spec_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (const std::string& piece : split_trimmed(text, "\n;")) {
    std::string line = trim(std::string_view(piece).substr(0, piece.find('#')));
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

/// Every int-valued key narrows here, once: a value outside the int range
/// is a named reject, never a wrap into some other spec (and its hash).
int parse_int(const std::string& value, const std::string& key) {
  int out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec == std::errc::result_out_of_range &&
      ptr == value.data() + value.size()) {
    throw InvalidArgument("spec: key '" + key + "' value '" + value +
                          "' is out of range (" +
                          std::to_string(std::numeric_limits<int>::min()) +
                          ".." +
                          std::to_string(std::numeric_limits<int>::max()) +
                          ")");
  }
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw InvalidArgument("spec: key '" + key + "' wants an integer, got '" +
                          value + "'");
  }
  return out;
}

std::uint64_t parse_u64(const std::string& value, const std::string& key) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw InvalidArgument("spec: key '" + key +
                          "' wants an unsigned integer, got '" + value + "'");
  }
  return out;
}

std::vector<int> parse_int_list(const std::string& value,
                                const std::string& key) {
  std::vector<int> out;
  for (const std::string& item : split_trimmed(value, ",")) {
    out.push_back(parse_int(item, key));
  }
  return out;
}

std::string int_list_to_string(const std::vector<int>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out;
}

/// Parses "synchronous" / "random-delay(D)" / "starve{a,b}(D)" — the
/// SchedulerSpec::to_string vocabulary — into a spec (sched_seed applied by
/// the caller). Normalization happens in canonical_sched below.
sim::SchedulerSpec parse_sched(const std::string& value) {
  if (value == "synchronous") return sim::SchedulerSpec::synchronous();
  const auto parse_delay = [&](std::size_t open) {
    if (value.back() != ')') {
      throw InvalidArgument("spec: malformed sched '" + value + "'");
    }
    const std::string body = value.substr(open + 1, value.size() - open - 2);
    return parse_int(trim(body), "sched");
  };
  if (value.rfind("random-delay(", 0) == 0) {
    return sim::SchedulerSpec::random_delay(parse_delay(12));
  }
  if (value.rfind("starve{", 0) == 0) {
    const std::size_t close = value.find('}');
    const std::size_t open = value.find('(', close);
    if (close == std::string::npos || open == std::string::npos) {
      throw InvalidArgument("spec: malformed sched '" + value + "'");
    }
    std::vector<int> starved;
    const std::string list = value.substr(7, close - 7);
    if (!trim(list).empty()) starved = parse_int_list(trim(list), "sched");
    return sim::SchedulerSpec::adversarial_starve(std::move(starved),
                                                  parse_delay(open));
  }
  throw InvalidArgument(
      "spec: unknown sched '" + value +
      "' (want synchronous, random-delay(D), or starve{a,b}(D))");
}

/// The canonical spelling of a scheduler: schedulers that cannot reorder
/// anything collapse to "synchronous", starve lists are sorted and
/// deduplicated — equivalent requests must not hash apart.
std::string canonical_sched(const std::string& value) {
  sim::SchedulerSpec spec = parse_sched(value);
  if (spec.is_synchronous()) return "synchronous";
  if (spec.kind == sim::SchedulerKind::kAdversarialStarve) {
    std::sort(spec.starved.begin(), spec.starved.end());
    spec.starved.erase(std::unique(spec.starved.begin(), spec.starved.end()),
                       spec.starved.end());
  }
  return spec.to_string();
}

PortPolicy parse_policy(const std::string& value) {
  for (const PortPolicy policy :
       {PortPolicy::kNone, PortPolicy::kFixed, PortPolicy::kCyclic,
        PortPolicy::kAdversarial, PortPolicy::kRandomPerRun}) {
    if (to_string(policy) == value) return policy;
  }
  throw InvalidArgument("spec: unknown port-policy '" + value + "'");
}

/// The policy a spec without an explicit port-policy runs under.
std::string default_policy(const std::string& model) {
  return model == "message-passing" ? "random-per-run" : "none";
}

}  // namespace

CanonicalSpec CanonicalSpec::parse(const std::string& text) {
  CanonicalSpec spec;
  std::map<std::string, std::string> pairs;
  for (const std::string& line : spec_lines(text)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument("spec: expected key=value, got '" + line + "'");
    }
    const std::string key = trim(std::string_view(line).substr(0, eq));
    const std::string value = trim(std::string_view(line).substr(eq + 1));
    if (std::find_if(std::begin(kKeys), std::end(kKeys), [&](const char* k) {
          return key == k;
        }) == std::end(kKeys)) {
      throw InvalidArgument("spec: unknown key '" + key +
                            "' (known: " + known_keys() + ")");
    }
    if (!pairs.emplace(key, value).second) {
      throw InvalidArgument("spec: duplicate key '" + key + "'");
    }
    if (value.find('|') != std::string::npos) {
      throw InvalidArgument("spec: key '" + key +
                            "' carries alternatives ('|'); expand grid "
                            "requests with expand_request");
    }
  }

  for (const auto& [key, value] : pairs) {
    if (key == "adaptive-budget") {
      spec.adaptive_budget = parse_u64(value, key);
    } else if (key == "pilot") {
      spec.pilot = parse_u64(value, key);
      if (spec.pilot == 0) {
        throw InvalidArgument(
            "spec: pilot must be >= 1 (omit the key for the default)");
      }
    } else if (key == "batch") {
      spec.batch = parse_int(value, key);
      if (spec.batch < 0) {
        throw InvalidArgument("spec: batch must be >= 0, got " + value);
      }
    } else if (key == "orbit") {
      if (value != "on" && value != "off") {
        throw InvalidArgument("spec: orbit must be 'on' or 'off', got '" +
                              value + "'");
      }
      spec.orbit = value;
    } else if (key == "model") {
      if (value != "blackboard" && value != "message-passing") {
        throw InvalidArgument("spec: unknown model '" + value + "'");
      }
      spec.model = value;
    } else if (key == "loads") {
      spec.loads = parse_int_list(value, key);
      long long parties = 0;
      for (const int load : spec.loads) parties += load;
      if (parties > kMaxParties) {
        throw InvalidArgument("spec: loads total " + std::to_string(parties) +
                              " exceeds the party bound " +
                              std::to_string(kMaxParties));
      }
    } else if (key == "protocol") {
      spec.protocol = value;
    } else if (key == "agents") {
      spec.agents = value;
    } else if (key == "task") {
      spec.task = value;
    } else if (key == "topology") {
      spec.topology = value;
    } else if (key == "topology-seed") {
      spec.topology_seed = parse_u64(value, key);
    } else if (key == "port-policy") {
      parse_policy(value);  // reject unknown spellings early
      spec.port_policy = value;
    } else if (key == "ports") {
      spec.ports = parse_int_list(value, key);
    } else if (key == "port-seed") {
      spec.port_seed = parse_u64(value, key);
    } else if (key == "variant") {
      if (value != "port-tagged" && value != "literal") {
        throw InvalidArgument("spec: unknown variant '" + value + "'");
      }
      spec.variant = value;
    } else if (key == "fault-crashes") {
      spec.fault_crashes = parse_int(value, key);
    } else if (key == "fault-window") {
      spec.fault_window = parse_int(value, key);
    } else if (key == "fault-seed") {
      spec.fault_seed = parse_u64(value, key);
    } else if (key == "sched") {
      parse_sched(value);  // reject malformed spellings early
      spec.sched = value;
    } else if (key == "sched-seed") {
      spec.sched_seed = parse_u64(value, key);
    } else if (key == "rounds") {
      spec.rounds = parse_int(value, key);
    } else if (key == "seeds") {
      const std::size_t plus = value.find('+');
      if (plus == std::string::npos) {
        throw InvalidArgument("spec: seeds wants 'first+count', got '" +
                              value + "'");
      }
      spec.seeds.first = parse_u64(trim(value.substr(0, plus)), key);
      spec.seeds.count = parse_u64(trim(value.substr(plus + 1)), key);
      if (spec.seeds.count >
          std::numeric_limits<std::uint64_t>::max() - spec.seeds.first) {
        throw InvalidArgument("spec: seeds=" + value +
                              " ends past the last seed (first + count "
                              "exceeds 2^64 - 1)");
      }
    }
  }
  if (spec.loads.empty()) {
    throw InvalidArgument("spec: missing required key 'loads'");
  }
  if (!spec.protocol.empty() && !spec.agents.empty()) {
    throw InvalidArgument(
        "spec: 'protocol' and 'agents' are mutually exclusive (one backend "
        "per spec)");
  }
  if (spec.protocol.empty() && spec.agents.empty()) {
    throw InvalidArgument(
        "spec: missing required key 'protocol' (or 'agents' for the agent "
        "backend)");
  }
  return spec;
}

std::string CanonicalSpec::canonical_text() const {
  // Every pair whose value differs from the default, keys sorted (the
  // kKeys order), one per line. Inert knobs — a port seed under a
  // non-random policy, fault fields with zero crashes, a sched seed under
  // a non-random scheduler, `batch` and `orbit` always (they select
  // nothing), and `adaptive-budget`/`pilot` always (adaptive sweeps
  // execute a subset of the same pure (spec, chunk) shards, so the knobs
  // change which chunks run, never any chunk's bytes) — are normalized
  // away: they cannot change any run, so they must not change the hash.
  const std::string effective_policy =
      port_policy.empty() ? default_policy(model) : port_policy;
  const std::string sched_canon = canonical_sched(sched);
  // "clique" IS the all-to-all default wiring, so it normalizes away —
  // every pre-topology spec keeps its hash. A live topology fixes the
  // wiring, which makes the port seed inert (omitted); a non-default
  // port-policy stays, because it is invalid rather than inert and must
  // hash apart from the spec that to_experiment() accepts.
  const bool topology_live = !topology.empty() && topology != "clique";
  const CanonicalSpec defaults;
  std::string out;
  const auto emit = [&out](const std::string& key, const std::string& value) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  };
  if (!agents.empty()) emit("agents", agents);
  if (fault_crashes != defaults.fault_crashes) {
    emit("fault-crashes", std::to_string(fault_crashes));
    if (fault_seed != defaults.fault_seed) {
      emit("fault-seed", std::to_string(fault_seed));
    }
    if (fault_window != defaults.fault_window) {
      emit("fault-window", std::to_string(fault_window));
    }
  }
  emit("loads", int_list_to_string(loads));
  if (model != defaults.model) emit("model", model);
  if (effective_policy != default_policy(model)) {
    emit("port-policy", effective_policy);
  }
  if (effective_policy == "random-per-run" &&
      port_seed != defaults.port_seed && !topology_live) {
    emit("port-seed", std::to_string(port_seed));
  }
  if (effective_policy == "fixed") emit("ports", int_list_to_string(ports));
  if (!protocol.empty()) emit("protocol", protocol);
  if (rounds != defaults.rounds) emit("rounds", std::to_string(rounds));
  if (sched_canon != "synchronous") {
    emit("sched", sched_canon);
    if (sched_canon.rfind("random-delay", 0) == 0 &&
        sched_seed != defaults.sched_seed) {
      emit("sched-seed", std::to_string(sched_seed));
    }
  }
  if (!task.empty()) emit("task", task);
  if (topology_live) {
    emit("topology", topology);
    if (topology_seed != defaults.topology_seed &&
        graph::is_randomized_topology(topology)) {
      emit("topology-seed", std::to_string(topology_seed));
    }
  }
  if (variant != defaults.variant) emit("variant", variant);
  return out;
}

std::uint64_t CanonicalSpec::hash() const {
  const std::string text = canonical_text();
  return hash_range(text.begin(), text.end(),
                    /*seed=*/0x72736264ULL /* "rsbd" */);
}

std::int64_t CanonicalSpec::run_work() const {
  std::int64_t parties = 0;
  for (const int load : loads) parties += load;
  // parse() bounds parties by kMaxParties and rounds by the int range, so
  // the product stays far inside 64 bits.
  return std::int64_t{rounds} * parties *
         (model == "message-passing" ? parties - 1 : 1);
}

void CanonicalSpec::check_run_work() const {
  const bool messages = model == "message-passing";
  const std::int64_t work = run_work();
  if (work > kMaxRunWork) {
    throw InvalidArgument(
        std::string("spec: per-run work rounds x parties") +
        (messages ? " x (parties - 1)" : "") + " = " + std::to_string(work) +
        " exceeds the work bound " + std::to_string(kMaxRunWork));
  }
}

std::string CanonicalSpec::hash_hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash()));
  return buffer;
}

Experiment CanonicalSpec::to_experiment() const {
  for (int load : loads) {
    if (load < 1) {
      throw InvalidArgument("spec: loads must be positive, got " +
                            int_list_to_string(loads));
    }
  }
  const SourceConfiguration config = SourceConfiguration::from_loads(loads);
  Experiment spec = model == "message-passing"
                        ? Experiment::message_passing(config)
                        : Experiment::blackboard(config);
  if (!port_policy.empty()) spec.with_port_policy(parse_policy(port_policy));
  if ((port_policy.empty() ? default_policy(model) : port_policy) == "fixed") {
    const int n = config.num_parties();
    if (static_cast<int>(ports.size()) != n * (n - 1)) {
      throw InvalidArgument(
          "spec: ports wants the flat n*(n-1) neighbor matrix (" +
          std::to_string(n * (n - 1)) + " entries for n=" + std::to_string(n) +
          "), got " + std::to_string(ports.size()));
    }
    std::vector<std::vector<int>> neighbor_of(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      neighbor_of[static_cast<std::size_t>(i)].assign(
          ports.begin() + i * (n - 1), ports.begin() + (i + 1) * (n - 1));
    }
    spec.with_ports(PortAssignment(std::move(neighbor_of)));
  }
  spec.with_port_seed(port_seed);
  if (!topology.empty()) {
    if (model != "message-passing") {
      throw InvalidArgument(
          "topology-requires-message-passing: a sparse topology IS a port "
          "wiring; blackboard specs have none");
    }
    spec.with_topology_seed(topology_seed);
    spec.with_topology(topology);
  }
  if (!protocol.empty()) {
    spec.with_protocol(protocol);
  } else {
    spec.with_agents(graph::make_agents(agents));
  }
  if (!task.empty()) spec.with_task(task);
  if (variant == "literal") spec.with_variant(MessageVariant::kLiteral);
  if (fault_crashes != 0) {
    spec.with_faults(
        sim::FaultPlan::crash_stop(fault_crashes, fault_window, fault_seed));
  }
  sim::SchedulerSpec scheduler = parse_sched(sched);
  scheduler.sched_seed = sched_seed;
  spec.with_scheduler(std::move(scheduler));
  spec.with_rounds(rounds);
  spec.with_seeds(seeds.first, seeds.count);
  spec.validate();
  return spec;
}

std::vector<SpecPoint> expand_request(const std::string& text,
                                      std::size_t max_points) {
  // Find the alternative-carrying keys with parse()'s line scanner: every
  // `key=v1|v2` line is an axis. The expansion substitutes one
  // alternative per axis into its line and parses each substitution as a
  // single-point spec — so all value validation lives in parse(), once.
  struct Axis {
    std::string key;
    std::vector<std::string> values;
    std::size_t line = 0;  // the request line it substitutes
  };
  std::vector<Axis> axes;
  const std::vector<std::string> lines = spec_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || line.find('|') == std::string::npos) {
      continue;
    }
    Axis axis;
    axis.key = trim(std::string_view(line).substr(0, eq));
    if (axis.key == "seeds") {
      throw InvalidArgument(
          "spec: 'seeds' cannot carry alternatives — the seed range is the "
          "query range, not a grid axis");
    }
    axis.values = split_trimmed(std::string_view(line).substr(eq + 1), "|");
    axis.line = i;
    axes.push_back(std::move(axis));
  }
  // Axes expand in sorted-key order, first sorted axis slowest — the
  // row-major convention of engine/grid.hpp.
  std::stable_sort(axes.begin(), axes.end(),
                   [](const Axis& a, const Axis& b) { return a.key < b.key; });
  std::size_t points = 1;
  for (const Axis& axis : axes) {
    points *= axis.values.size();
    if (points > max_points) {
      throw InvalidArgument("spec: grid expands past " +
                            std::to_string(max_points) + " points");
    }
  }
  std::vector<SpecPoint> out;
  out.reserve(points);
  std::vector<std::size_t> choice(axes.size(), 0);
  for (std::size_t p = 0; p < points; ++p) {
    // Decode p row-major: first axis slowest.
    std::size_t rest = p;
    for (std::size_t a = axes.size(); a-- > 0;) {
      choice[a] = rest % axes[a].values.size();
      rest /= axes[a].values.size();
    }
    std::vector<std::string> point_lines = lines;
    SpecPoint point;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string coordinate =
          axes[a].key + "=" + axes[a].values[choice[a]];
      point_lines[axes[a].line] = coordinate;
      if (!point.label.empty()) point.label += ' ';
      point.label += coordinate;
    }
    std::string substituted;
    for (const std::string& line : point_lines) substituted += line + '\n';
    point.spec = CanonicalSpec::parse(substituted);
    out.push_back(std::move(point));
  }
  return out;
}

}  // namespace rsb::service
