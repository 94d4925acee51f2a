// rsbd — the experiment service daemon.
//
// Binds 127.0.0.1:<port> (0 = ephemeral), announces the bound port on
// stdout, then serves the line protocol (src/service/server.hpp) until
// SIGTERM/SIGINT or a client's `shutdown` op; either way it drains the
// admitted queue before exiting, so accepted jobs always finish streaming.
//
//   rsbd [--port N] [--threads N] [--cache-mb N] [--max-queue N]
//        [--quantum RUNS]
//
// The announce line ("rsbd: listening on 127.0.0.1:41234") is how scripts
// discover an ephemeral port: start rsbd, read the first stdout line.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "service/server.hpp"
#include "util/error.hpp"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--threads N] [--cache-mb N]"
               " [--max-queue N] [--quantum RUNS]\n",
               argv0);
  std::exit(2);
}

/// Reads a flag's value as an integer in [0, max], by default the range
/// of the ServerConfig field it sets; outside it, exits 2 naming the flag
/// instead of wrapping into another value. Semantic bounds (a zero
/// quantum, a port past 65535) are Server::start's to reject.
template <typename Field>
Field parse_flag(const char* argv0, const char* flag, const char* text,
                 std::uint64_t max = std::numeric_limits<Field>::max()) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    std::fprintf(stderr, "%s: %s wants an integer in [0, %llu], got '%s'\n",
                 argv0, flag, static_cast<unsigned long long>(max), text);
    std::exit(2);
  }
  return static_cast<Field>(value);
}

}  // namespace

int main(int argc, char** argv) {
  rsb::service::ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--port" && has_value) {
      config.port = parse_flag<int>(argv[0], "--port", argv[++i]);
    } else if (arg == "--threads" && has_value) {
      config.threads = parse_flag<int>(argv[0], "--threads", argv[++i]);
    } else if (arg == "--cache-mb" && has_value) {
      // The byte budget is the megabyte count shifted by 20 bits.
      config.cache_bytes =
          parse_flag<std::uint64_t>(argv[0], "--cache-mb", argv[++i],
                                    std::numeric_limits<std::uint64_t>::max() >>
                                        20)
          << 20;
    } else if (arg == "--max-queue" && has_value) {
      config.max_queue_jobs =
          parse_flag<std::size_t>(argv[0], "--max-queue", argv[++i]);
    } else if (arg == "--quantum" && has_value) {
      config.quantum_runs =
          parse_flag<std::uint64_t>(argv[0], "--quantum", argv[++i]);
    } else {
      usage(argv[0]);
    }
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  rsb::service::Server server(config);
  try {
    server.start();
  } catch (const rsb::Error& e) {
    std::fprintf(stderr, "rsbd: %s\n", e.what());
    return 1;
  }
  std::printf("rsbd: listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  while (g_signalled == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "rsbd: draining\n");
  server.stop();

  const rsb::service::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "rsbd: served %llu jobs (%llu rejected), %llu runs executed,"
               " %llu runs from cache\n",
               static_cast<unsigned long long>(stats.jobs_completed),
               static_cast<unsigned long long>(stats.jobs_rejected),
               static_cast<unsigned long long>(stats.runs_executed),
               static_cast<unsigned long long>(stats.runs_cached));
  return 0;
}
