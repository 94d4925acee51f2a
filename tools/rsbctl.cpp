// rsbctl — line client for rsbd (src/service/server.hpp).
//
//   rsbctl --port N submit <spec-file|->  [--format text|csv|json]
//   rsbctl --port N run <protocol> <task> <loads> [<seeds>] [key=value ...]
//   rsbctl --port N ping | stats | shutdown
//
// `submit` reads a canonical spec (src/service/canonical.hpp) from a file
// (`-` = stdin); `run` is the registry-name shorthand — it assembles the
// spec text from the protocol/task registry names, the load vector, an
// optional seeds range (default 0+1000), and any extra key=value lines.
// Rows stream to stdout as they arrive, in run-index order; the done
// summary goes to stderr as `done runs=N executed=X cached=Y` (scripts
// assert cache hits by grepping executed=0). The port comes from --port or
// $RSBD_PORT. Exit status: 0 on success, 1 when the server reports an
// error, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "graph/agents.hpp"
#include "graph/graph_task.hpp"
#include "graph/topology.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "util/error.hpp"

namespace {

using rsb::service::json::Value;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: rsbctl --port N submit <spec-file|-> [--format text|csv|json]\n"
      "       rsbctl --port N run <protocol|agents> <task> <loads> [<seeds>]"
      " [key=value ...]\n"
      "       rsbctl run --list\n"
      "       rsbctl --port N (ping|stats|shutdown)\n"
      "The port may also come from $RSBD_PORT.\n");
  std::exit(2);
}

std::string read_spec_file(const std::string& path) {
  if (path == "-") {
    std::ostringstream out;
    out << std::cin.rdbuf();
    return out.str();
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rsbctl: cannot read spec file '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string field(const Value& row, const char* key) {
  const Value* v = row.find(key);
  if (v == nullptr) return "";
  if (v->kind() == Value::Kind::kNumber) return v->raw_number();
  if (v->kind() == Value::Kind::kBool) return v->as_bool() ? "1" : "0";
  if (v->is_string()) return v->as_string();
  return v->serialize();
}

std::string csv_field(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void print_row(const std::string& format, const Value& msg, bool* csv_header) {
  const Value* row = msg.find("row");
  if (row == nullptr) return;
  if (format == "json") {
    std::printf("%s\n", msg.serialize().c_str());
    return;
  }
  if (format == "csv") {
    if (!*csv_header) {
      std::printf(
          "point,label,chunk,cached,seed_first,seeds,runs,terminated,"
          "successes,total_rounds,crashed_parties\n");
      *csv_header = true;
    }
    std::printf("%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
                field(msg, "point").c_str(),
                csv_field(field(msg, "label")).c_str(),
                field(msg, "chunk").c_str(), field(msg, "cached").c_str(),
                field(*row, "seed_first").c_str(), field(*row, "seeds").c_str(),
                field(*row, "runs").c_str(), field(*row, "terminated").c_str(),
                field(*row, "successes").c_str(),
                field(*row, "total_rounds").c_str(),
                field(*row, "crashed_parties").c_str());
    return;
  }
  // text
  const std::string label = field(msg, "label");
  std::printf("point %s%s chunk %s seeds %s+%s: runs=%s terminated=%s",
              field(msg, "point").c_str(),
              label.empty() ? "" : (" [" + label + "]").c_str(),
              field(msg, "chunk").c_str(), field(*row, "seed_first").c_str(),
              field(*row, "seeds").c_str(), field(*row, "runs").c_str(),
              field(*row, "terminated").c_str());
  const std::string successes = field(*row, "successes");
  if (!successes.empty()) std::printf(" successes=%s", successes.c_str());
  std::printf(" rounds=%s%s\n", field(*row, "total_rounds").c_str(),
              field(msg, "cached") == "1" ? " (cached)" : "");
}

int stream_job(rsb::service::Client& client, const std::string& spec,
               const std::string& format) {
  const std::string accepted =
      client.request(rsb::service::submit_request(spec));
  const Value head = Value::parse(accepted);
  const Value* type = head.find("type");
  if (type == nullptr || type->as_string() != "accepted") {
    std::fprintf(stderr, "rsbctl: %s\n",
                 head.find("reason") ? head.find("reason")->as_string().c_str()
                                     : accepted.c_str());
    return 1;
  }
  bool csv_header = false;
  while (auto line = client.read_line()) {
    const Value msg = Value::parse(*line);
    const std::string kind = field(msg, "type");
    if (kind == "row") {
      print_row(format, msg, &csv_header);
    } else if (kind == "done") {
      std::fprintf(stderr, "done runs=%s executed=%s cached=%s\n",
                   field(msg, "runs").c_str(),
                   field(msg, "runs_executed").c_str(),
                   field(msg, "runs_cached").c_str());
      return 0;
    } else if (kind == "error") {
      std::fprintf(stderr, "rsbctl: %s\n", field(msg, "reason").c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "rsbctl: server closed the connection mid-job\n");
  return 1;
}

/// `run --list`: every registry name a `run` invocation can spell, one
/// section per vocabulary. Purely local — the registries are compiled into
/// rsbctl, so no daemon (and no port) is needed.
int list_vocabulary() {
  const auto section = [](const char* title,
                          const std::vector<std::string>& lines) {
    std::printf("%s:\n", title);
    for (const std::string& line : lines) std::printf("  %s\n", line.c_str());
  };
  section("protocols", rsb::ProtocolRegistry::global().describe());
  section("tasks", rsb::TaskRegistry::global().describe());
  section("agents", rsb::graph::AgentRegistry::global().describe());
  section("graph tasks (need topology=)",
          rsb::graph::GraphTaskRegistry::global().describe());
  section("topologies", rsb::graph::TopologyRegistry::global().describe());
  section("execution knobs (hash-inert: results are byte-identical either "
          "way, so they never change the spec hash or cache shard)",
          {"batch=N           accepted and ignored",
           "orbit=on|off      accepted and ignored",
           "adaptive-budget=N total adaptive run budget (0 = uniform sweep)",
           "pilot=N           pilot runs per point for adaptive sweeps"});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  if (const char* env = std::getenv("RSBD_PORT")) port = std::atoi(env);
  std::string format = "text";
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else {
      rest.push_back(arg);
    }
  }
  if (rest.size() == 2 && rest[0] == "run" && rest[1] == "--list") {
    return list_vocabulary();
  }
  if (rest.empty() || port <= 0) usage();
  if (format != "text" && format != "csv" && format != "json") usage();

  const std::string command = rest[0];
  try {
    rsb::service::Client client;
    client.connect(port);
    if (command == "ping" || command == "stats") {
      std::printf("%s\n",
                  client.request("{\"op\":\"" + command + "\"}").c_str());
      return 0;
    }
    if (command == "shutdown") {
      std::printf("%s\n", client.request("{\"op\":\"shutdown\"}").c_str());
      return 0;
    }
    if (command == "submit") {
      if (rest.size() != 2) usage();
      return stream_job(client, read_spec_file(rest[1]), format);
    }
    if (command == "run") {
      if (rest.size() < 4) usage();
      // Agent names route to the agent backend; everything else stays a
      // protocol spec, so unknown names still fail with the server's
      // protocol-registry error listing the known names.
      const std::string backend_key =
          rsb::graph::AgentRegistry::global().contains(rest[1]) ? "agents"
                                                                : "protocol";
      std::string spec = backend_key + "=" + rest[1] + "\ntask=" + rest[2] +
                         "\nloads=" + rest[3];
      spec += "\nseeds=" + (rest.size() > 4 && rest[4].find('=') ==
                                                   std::string::npos
                                ? rest[4]
                                : std::string("0+1000"));
      for (std::size_t i = 4; i < rest.size(); ++i) {
        if (rest[i].find('=') != std::string::npos) spec += "\n" + rest[i];
      }
      return stream_job(client, spec, format);
    }
    usage();
  } catch (const rsb::Error& e) {
    std::fprintf(stderr, "rsbctl: %s\n", e.what());
    return 1;
  }
}
