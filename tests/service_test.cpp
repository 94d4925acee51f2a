// Loopback integration tests for the experiment service (rsbd core):
// daemon-served rows are byte-identical to the in-process engine — cold,
// cached, and under concurrent clients (the pinned invariant of the
// service layer) — the result cache serves repeated and subsumed queries
// without executing runs, admission control bounds the queue with a
// reasoned rejection, drain finishes queued jobs while rejecting new
// ones, a spec over the per-run work bound is a named reject, and no
// client — one that stops reading, one too many for the fd limit, or one
// asking for an endless run — can stall the daemon for the others.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/rows.hpp"
#include "service/server.hpp"
#include "util/error.hpp"

namespace rsb::service {
namespace {

using json::Value;

// A spec that terminates fast (singleton class exists from the start) so
// whole sweeps are cheap; 600 seeds span three aligned chunks (256-aligned
// boundaries at 256 and 512).
constexpr char kSpec[] =
    "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
    "seeds=0+600";

struct JobResult {
  std::vector<std::string> rows;   // the "row" objects, serialized
  std::vector<std::string> lines;  // the raw row lines
  std::uint64_t runs_executed = 0;
  std::uint64_t runs_cached = 0;
  std::uint64_t runs_deduped = 0;
  std::string done_line;
};

/// Submits `spec` and reads until done. Asserts the accept handshake, that
/// row chunks arrive in run-index order, and the done line's counter laws:
/// every run is either executed or cached, and `runs_deduped` reads 0.
JobResult run_job(Client& client, const std::string& spec) {
  JobResult result;
  const Value accepted = Value::parse(client.request(submit_request(spec)));
  EXPECT_EQ(accepted.find("type")->as_string(), "accepted");
  std::uint64_t next_chunk = 0;
  while (auto line = client.read_line()) {
    const Value msg = Value::parse(*line);
    const std::string type = msg.find("type")->as_string();
    if (type == "row") {
      EXPECT_EQ(msg.find("chunk")->as_uint(), next_chunk++);
      result.rows.push_back(msg.find("row")->serialize());
      result.lines.push_back(*line);
      continue;
    }
    EXPECT_EQ(type, "done") << *line;
    result.runs_executed = msg.find("runs_executed")->as_uint();
    result.runs_cached = msg.find("runs_cached")->as_uint();
    result.runs_deduped = msg.find("runs_deduped")->as_uint();
    result.done_line = *line;
    EXPECT_EQ(result.runs_executed + result.runs_cached,
              msg.find("runs")->as_uint())
        << *line;
    EXPECT_EQ(result.runs_deduped, 0u) << *line;
    break;
  }
  return result;
}

std::vector<std::string> reference_for(const std::string& spec_text) {
  Engine engine;
  return reference_rows(engine, CanonicalSpec::parse(spec_text));
}

TEST(Service, ColdRowsAreByteIdenticalToInProcessEngine) {
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());

  const JobResult job = run_job(client, kSpec);
  const std::vector<std::string> expected = reference_for(kSpec);
  ASSERT_EQ(job.rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(job.rows[i], expected[i]) << "chunk " << i;
  }
  EXPECT_EQ(job.runs_executed, 600u);
  EXPECT_EQ(job.runs_cached, 0u);
  server.stop();
}

TEST(Service, RepeatedQueryIsServedEntirelyFromCache) {
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());

  const JobResult cold = run_job(client, kSpec);
  const std::uint64_t executed_after_cold = server.stats().runs_executed;
  const JobResult warm = run_job(client, kSpec);

  // Zero new runs: the engine's run counter did not move, and the job
  // accounting says every run came from the cache.
  EXPECT_EQ(server.stats().runs_executed, executed_after_cold);
  EXPECT_EQ(warm.runs_executed, 0u);
  EXPECT_EQ(warm.runs_cached, 600u);
  // Byte-identical replay (the cache stores the serialized payloads).
  ASSERT_EQ(warm.rows.size(), cold.rows.size());
  for (std::size_t i = 0; i < cold.rows.size(); ++i) {
    EXPECT_EQ(warm.rows[i], cold.rows[i]) << "chunk " << i;
  }
  EXPECT_GE(server.stats().cache.hits, 3u);
  server.stop();
}

TEST(Service, WarmRepeatsDoNotWaitOnDelayedAcks) {
  // Regression: accepted sockets left Nagle's algorithm on, so the lines
  // after a job's first reply waited for the client's delayed ACK — a warm
  // 600-run job took ~44 ms, nearly all of it idle. Accepted sockets now
  // set TCP_NODELAY.
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());
  run_job(client, kSpec);  // cold: fills the cache

  std::vector<double> job_ms;
  for (int repeat = 0; repeat < 11; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    const JobResult warm = run_job(client, kSpec);
    job_ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    EXPECT_EQ(warm.runs_executed, 0u);
  }
  std::nth_element(job_ms.begin(), job_ms.begin() + 5, job_ms.end());
  EXPECT_LT(job_ms[5], 10.0) << "median warm job, in ms";
  server.stop();
}

TEST(Service, OverlappingSweepOnlyRunsUncoveredSeeds) {
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());

  // First sweep covers chunks [0,256) and [256,512); the overlapping sweep
  // shares its interior chunk (absolute alignment) and pays only for
  // [512,768).
  const std::string first =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "seeds=0+512";
  const std::string overlapping =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "seeds=256+512";
  const JobResult cold = run_job(client, first);
  EXPECT_EQ(cold.runs_executed, 512u);
  const JobResult warm = run_job(client, overlapping);
  EXPECT_EQ(warm.runs_cached, 256u);
  EXPECT_EQ(warm.runs_executed, 256u);

  // The overlapping sweep's rows are still the reference bytes.
  const std::vector<std::string> expected = reference_for(overlapping);
  ASSERT_EQ(warm.rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(warm.rows[i], expected[i]) << "chunk " << i;
  }
  server.stop();
}

TEST(Service, ConcurrentClientsGetReferenceBytes) {
  Server server({.threads = 2});
  server.start();

  // Distinct specs (different rounds) so the clients cannot serve each
  // other's cache entries, submitted concurrently so the DRR scheduler
  // interleaves their chunks.
  const std::string spec_a =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "rounds=40\nseeds=0+600";
  const std::string spec_b =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "rounds=60\nseeds=128+600";
  JobResult result_a, result_b;
  std::thread thread_a([&] {
    Client client;
    client.connect(server.port());
    result_a = run_job(client, spec_a);
  });
  std::thread thread_b([&] {
    Client client;
    client.connect(server.port());
    result_b = run_job(client, spec_b);
  });
  thread_a.join();
  thread_b.join();

  const std::vector<std::string> expected_a = reference_for(spec_a);
  const std::vector<std::string> expected_b = reference_for(spec_b);
  ASSERT_EQ(result_a.rows.size(), expected_a.size());
  ASSERT_EQ(result_b.rows.size(), expected_b.size());
  for (std::size_t i = 0; i < expected_a.size(); ++i) {
    EXPECT_EQ(result_a.rows[i], expected_a[i]) << "client A chunk " << i;
  }
  for (std::size_t i = 0; i < expected_b.size(); ++i) {
    EXPECT_EQ(result_b.rows[i], expected_b[i]) << "client B chunk " << i;
  }
  server.stop();
}

TEST(Service, CrossJobDedupExecutesSharedChunksOnce) {
  // cache_bytes = 0: the LRU cache retains nothing, so the only way a
  // chunk can come back "cached" here is the completion-time handover
  // from another job's execution — the cross-job dedup path, not the
  // cache. One session means FIFO job order: the slow decoy occupies the
  // scheduler while A and B queue behind it, so B is provably queued
  // before any A chunk executes and every A chunk is handed over.
  Server server({.threads = 2, .cache_bytes = 0});
  server.start();
  Client client;
  client.connect(server.port());

  const std::string decoy =
      "loads=2,3\nprotocol=wait-for-singleton-LE\nseeds=0+256";
  // Misaligned ranges of a second spec: D = 100+600 is cut into
  // [100,256) [256,512) [512,700); E = 256+444 is exactly D's last two
  // chunks, so all of E is handed over; F = 300+212 is one chunk that is
  // none of D's, so F executes its own.
  const std::string misaligned =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "rounds=40\nseeds=";
  client.send_line(submit_request(decoy));
  client.send_line(submit_request(kSpec));  // job A
  client.send_line(submit_request(kSpec));  // job B: same spec, same chunks
  client.send_line(submit_request(misaligned + "100+600"));  // job D
  client.send_line(submit_request(misaligned + "256+444"));  // job E
  client.send_line(submit_request(misaligned + "300+212"));  // job F

  std::vector<std::uint64_t> accepted_ids;
  std::map<std::uint64_t, JobResult> jobs;
  std::size_t done_seen = 0;
  while (done_seen < 6) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    const Value msg = Value::parse(*line);
    const std::string type = msg.find("type")->as_string();
    if (type == "accepted") {
      accepted_ids.push_back(msg.find("job")->as_uint());
      continue;
    }
    const std::uint64_t id = msg.find("job")->as_uint();
    if (type == "row") {
      jobs[id].rows.push_back(msg.find("row")->serialize());
      jobs[id].lines.push_back(*line);
      continue;
    }
    ASSERT_EQ(type, "done") << *line;
    jobs[id].runs_executed = msg.find("runs_executed")->as_uint();
    jobs[id].runs_cached = msg.find("runs_cached")->as_uint();
    ++done_seen;
  }
  ASSERT_EQ(accepted_ids.size(), 6u);
  const JobResult& job_a = jobs[accepted_ids[1]];
  const JobResult& job_b = jobs[accepted_ids[2]];
  const JobResult& job_d = jobs[accepted_ids[3]];
  const JobResult& job_e = jobs[accepted_ids[4]];
  const JobResult& job_f = jobs[accepted_ids[5]];

  // The engine's run counter moved once per distinct chunk: the decoy's
  // 256 runs plus A's 600, D's 600 and F's 212 — B's and E's runs never
  // reached the engine.
  EXPECT_EQ(server.stats().runs_executed, 256u + 600u + 600u + 212u);
  EXPECT_EQ(job_d.runs_executed, 600u);
  EXPECT_EQ(job_e.runs_executed, 0u);
  EXPECT_EQ(job_e.runs_cached, 444u);
  EXPECT_EQ(job_f.runs_executed, 212u);
  EXPECT_EQ(job_f.runs_cached, 0u);
  ASSERT_EQ(job_e.rows.size(), 2u);
  ASSERT_EQ(job_d.rows.size(), 3u);
  EXPECT_EQ(job_e.rows[0], job_d.rows[1]);
  EXPECT_EQ(job_e.rows[1], job_d.rows[2]);
  EXPECT_EQ(job_a.runs_executed, 600u);
  EXPECT_EQ(job_a.runs_cached, 0u);
  EXPECT_EQ(job_b.runs_executed, 0u);
  EXPECT_EQ(job_b.runs_cached, 600u);
  // Handed-over rows are the executed bytes: B's payloads equal A's
  // chunk-for-chunk (only the row lines' cached flag differs).
  ASSERT_EQ(job_b.rows.size(), job_a.rows.size());
  for (std::size_t i = 0; i < job_a.rows.size(); ++i) {
    EXPECT_EQ(job_b.rows[i], job_a.rows[i]) << "chunk " << i;
    EXPECT_NE(job_b.lines[i].find("\"cached\":true"), std::string::npos)
        << "chunk " << i;
  }
  server.stop();
}

TEST(Service, GridRequestStreamsEveryPointInOrder) {
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());

  const std::string grid =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "rounds=30|50\nseeds=0+300";
  const Value accepted = Value::parse(client.request(submit_request(grid)));
  ASSERT_EQ(accepted.find("type")->as_string(), "accepted");
  EXPECT_EQ(accepted.find("points")->as_uint(), 2u);
  EXPECT_EQ(accepted.find("chunks")->as_uint(), 4u);  // 2 points x 2 chunks
  ASSERT_EQ(accepted.find("spec_hashes")->items().size(), 2u);

  std::vector<std::string> labels;
  std::uint64_t last_point = 0;
  while (auto line = client.read_line()) {
    const Value msg = Value::parse(*line);
    if (msg.find("type")->as_string() != "row") break;
    const std::uint64_t point = msg.find("point")->as_uint();
    EXPECT_GE(point, last_point);  // points stream in run-index order
    last_point = point;
    labels.push_back(msg.find("label")->as_string());
  }
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels.front(), "rounds=30");
  EXPECT_EQ(labels.back(), "rounds=50");
  server.stop();
}

TEST(Service, MalformedRequestsGetReasonedErrors) {
  Server server({.threads = 1});
  server.start();
  Client client;
  client.connect(server.port());

  // Not JSON at all.
  const Value bad_json = Value::parse(client.request("this is not json"));
  EXPECT_EQ(bad_json.find("type")->as_string(), "error");
  // Valid JSON, unknown op.
  const Value bad_op = Value::parse(client.request("{\"op\":\"frobnicate\"}"));
  EXPECT_EQ(bad_op.find("type")->as_string(), "error");
  // A malformed spec is rejected at submit, never queued.
  const Value bad_spec = Value::parse(
      client.request(submit_request("loads=2,3\nno-such-key=1")));
  EXPECT_EQ(bad_spec.find("type")->as_string(), "error");
  EXPECT_NE(bad_spec.find("reason")->as_string().find("no-such-key"),
            std::string::npos);
  // An unresolvable registry name is also a submit-time error.
  const Value bad_name = Value::parse(
      client.request(submit_request("loads=2,3\nprotocol=nope")));
  EXPECT_EQ(bad_name.find("type")->as_string(), "error");
  // Two points of 2^63 + 1 seeds each: the request's run count would wrap.
  const Value wide = Value::parse(client.request(
      submit_request("loads=1,2\nprotocol=wait-for-singleton-LE\n"
                     "rounds=30|50\nseeds=0+9223372036854775809")));
  EXPECT_EQ(wide.find("type")->as_string(), "error");
  EXPECT_NE(wide.find("reason")->as_string().find("do not fit in 64 bits"),
            std::string::npos);
  // The connection survives all of it.
  const Value pong = Value::parse(client.request("{\"op\":\"ping\"}"));
  EXPECT_EQ(pong.find("type")->as_string(), "pong");
  EXPECT_EQ(server.stats().jobs_rejected, 0u);  // parse errors != admission
  server.stop();
}

TEST(Service, AdmissionQueueBoundRejectsWithReason) {
  Server server({.threads = 1, .max_queue_jobs = 1});
  server.start();
  Client client;
  client.connect(server.port());

  // Job 1 is admitted and takes a while (non-terminating spec sweeps all
  // 300 rounds per run); job 2 arrives while it is pending and must be
  // rejected immediately with a reason — not silently queued.
  const std::string slow =
      "loads=2,3\nprotocol=wait-for-singleton-LE\nseeds=0+512";
  const Value first = Value::parse(client.request(submit_request(slow)));
  ASSERT_EQ(first.find("type")->as_string(), "accepted");
  Client second;
  second.connect(server.port());
  const Value rejected = Value::parse(
      second.request(submit_request("loads=1,2\nprotocol=wait-for-singleton-LE"
                                    "\nseeds=0+10")));
  EXPECT_EQ(rejected.find("type")->as_string(), "error");
  EXPECT_NE(rejected.find("reason")->as_string().find("queue full"),
            std::string::npos);
  EXPECT_EQ(server.stats().jobs_rejected, 1u);
  server.stop();  // drains job 1
}

TEST(Service, DrainFinishesQueuedJobsAndRejectsNewOnes) {
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());

  const Value accepted = Value::parse(client.request(submit_request(kSpec)));
  ASSERT_EQ(accepted.find("type")->as_string(), "accepted");
  server.begin_drain();
  Client late;
  late.connect(server.port());
  const Value rejected =
      Value::parse(late.request(submit_request(kSpec)));
  EXPECT_EQ(rejected.find("type")->as_string(), "error");
  EXPECT_NE(rejected.find("reason")->as_string().find("draining"),
            std::string::npos);

  // The admitted job still streams to completion.
  std::size_t rows = 0;
  std::string done_type;
  while (auto line = client.read_line()) {
    const Value msg = Value::parse(*line);
    const std::string type = msg.find("type")->as_string();
    if (type == "row") {
      ++rows;
      continue;
    }
    done_type = type;
    break;
  }
  EXPECT_EQ(rows, 3u);
  EXPECT_EQ(done_type, "done");
  server.stop();
}

TEST(Service, ShutdownOpRequestsDaemonExit) {
  Server server({.threads = 1});
  server.start();
  EXPECT_FALSE(server.shutdown_requested());
  Client client;
  client.connect(server.port());
  const Value ack = Value::parse(client.request("{\"op\":\"shutdown\"}"));
  EXPECT_EQ(ack.find("type")->as_string(), "shutdown-ack");
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

/// Open file descriptors of this process.
std::size_t open_fds() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// Live threads of this process.
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

TEST(Service, ClientChurnKeepsFdsAndThreadsBounded) {
  // Regression: every session (and its fd) and its thread used to live
  // until stop(), so a long-running daemon held one fd and one thread per
  // client it had ever seen. One loop thread now serves every session,
  // and a session's fd closes as soon as its client hangs up.
  constexpr int kCycles = 2000;
  constexpr std::size_t kSlack = 8;
  Server server({.threads = 1});
  server.start();
  const std::size_t fds_before = open_fds();
  const std::size_t threads_before = thread_count();
  const auto ping = [&server] {
    Client client;
    client.connect(server.port());
    return Value::parse(client.request("{\"op\":\"ping\"}"))
        .find("type")
        ->as_string();
  };
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ASSERT_EQ(ping(), "pong") << "cycle " << cycle;
  }
  // The server may not have seen the last clients' hang-ups yet.
  const auto settled = [&] {
    return open_fds() <= fds_before + kSlack &&
           thread_count() <= threads_before + kSlack;
  };
  for (int attempt = 0; attempt < 50 && !settled(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(ping(), "pong");
  }
  EXPECT_LE(open_fds(), fds_before + kSlack);
  EXPECT_EQ(thread_count(), threads_before);
  server.stop();
}

// Raw loopback sockets, for the tests that need socket options, reply
// timeouts or descriptor placement the protocol Client does not offer.

/// A TCP socket, not yet connected; `receive_buffer` > 0 shrinks SO_RCVBUF.
int open_socket(int receive_buffer = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0 && receive_buffer > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                 sizeof(receive_buffer));
  }
  return fd;
}

bool connect_to(int fd, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

bool send_all(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// The first reply line on `fd`, or "" when none arrives within `timeout`.
std::string read_reply(int fd, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string buffer;
  while (buffer.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return "";
    }
    char scratch[4096];
    const ssize_t n = ::recv(fd, scratch, sizeof(scratch), 0);
    if (n <= 0) return "";
    buffer.append(scratch, static_cast<std::size_t>(n));
  }
  return buffer.substr(0, buffer.find('\n'));
}

bool is_pong(const std::string& reply) {
  return reply.find("\"type\":\"pong\"") != std::string::npos;
}

TEST(Service, StalledReaderDoesNotStallOtherClients) {
  // Regression: rows went out through a blocking send() on the thread that
  // runs every chunk, so a client that submitted a long sweep and stopped
  // reading wedged the daemon once its socket buffers filled — every other
  // client's job waited behind it, and so did stop(). Rows now queue in a
  // per-session outbox, and a session whose outbox is over its bound is
  // skipped until its client reads.
  Server server({.threads = 1});
  server.start();
  // A 536-byte MSS keeps the send buffer the kernel autotunes for this
  // connection small, so the buffers between the server and the client
  // fill after a few hundred KiB of rows instead of several MiB.
  const int stalled = open_socket(4096);
  const int mss = 536;
  ::setsockopt(stalled, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof(mss));
  ASSERT_TRUE(connect_to(stalled, server.port()));
  ASSERT_TRUE(send_all(
      stalled,
      submit_request("loads=1,1\nprotocol=wait-for-singleton-LE\n"
                     "task=leader-election\nseeds=0+20000000")));
  // Let its rows fill every buffer between it and the server: wait until
  // the server stops executing its runs.
  std::uint64_t executed = 0;
  for (int check = 0; check < 600; ++check) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const std::uint64_t now = server.stats().runs_executed;
    if (now != 0 && now == executed) break;
    executed = now;
  }

  auto other = std::async(std::launch::async, [&server] {
    Client client;
    client.connect(server.port());
    return run_job(client, kSpec);
  });
  const bool served = other.wait_for(std::chrono::seconds(10)) ==
                      std::future_status::ready;
  // Closing the stalled client frees the server either way, so the other
  // job always ends and the test cannot hang.
  ::close(stalled);
  EXPECT_TRUE(served) << "a client that stopped reading stalled another "
                         "client's 600-run job for 10 s";
  const JobResult job = other.get();
  EXPECT_EQ(job.rows, reference_for(kSpec));
  server.stop();
}

/// Moves `fd` to the lowest free descriptor at or above `floor`.
int move_to(int fd, int floor) {
  const int moved = ::fcntl(fd, F_DUPFD, floor);
  ::close(fd);
  return moved;
}

/// Seconds of CPU this process has used, over all of its threads.
double process_cpu_seconds() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

TEST(Service, AcceptRecoversFromTheFdLimitWithoutSpinning) {
  // Regression: once accept() failed with EMFILE, the accept thread
  // retried in a loop while the listener stayed readable (a core at 100%),
  // and the finished sessions that would have freed descriptors were only
  // reaped after a successful accept — so the daemon never accepted again.
  // The loop now stops polling the listener until a session is erased.
  Server server({.threads = 1});
  server.start();
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  // The test's own sockets sit above the lowered limit, so closing them
  // gives the server no descriptor: only its own sessions can.
  const int high = static_cast<int>(saved.rlim_cur / 2);
  std::size_t low_open = 0;
  int low_highest = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    if (fd >= high) continue;
    ++low_open;
    low_highest = std::max(low_highest, fd);
  }
  const int limit = low_highest + 1 + 8;
  const std::size_t clients_wanted =
      static_cast<std::size_t>(limit) - low_open + 4;
  ASSERT_LT(limit, high);
  std::vector<int> clients;
  for (std::size_t i = 0; i <= clients_wanted; ++i) {
    clients.push_back(move_to(open_socket(), high));
    ASSERT_GE(clients.back(), high);
  }
  const int fresh = clients.back();
  clients.pop_back();

  struct RestoreLimit {
    rlimit saved;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore{saved};
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(limit);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // Connect until the server cannot accept: the first client whose ping
  // gets no pong waits in the listen backlog.
  std::size_t served = 0;
  for (const int fd : clients) {
    if (!connect_to(fd, server.port()) || !send_all(fd, "{\"op\":\"ping\"}") ||
        !is_pong(read_reply(fd, std::chrono::milliseconds(1000)))) {
      break;
    }
    ++served;
  }
  EXPECT_LT(served, clients.size()) << "the server never ran out of fds";
  for (const int fd : clients) ::close(fd);

  ASSERT_TRUE(connect_to(fresh, server.port()));
  ASSERT_TRUE(send_all(fresh, "{\"op\":\"ping\"}"));
  EXPECT_TRUE(is_pong(read_reply(fresh, std::chrono::milliseconds(2000))))
      << "no pong after every client closed";
  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LT(process_cpu_seconds() - cpu_before, 0.25)
      << "an idle daemon burned CPU";
  ::close(fresh);
  server.stop();
}

TEST(Service, AClientPastTheSessionBoundReadsANamedRejectAndIsClosed) {
  // Regression: rsbd accepted every client, so idle connections could
  // hold descriptors until accept() failed for everyone. At most
  // kMaxSessions sessions are served at once: the next client reads one
  // error line naming the limit and is closed, the held sessions keep
  // being served, and a session that ends frees its place.
  Server server({.threads = 1});
  server.start();
  const std::string ping = "{\"op\":\"ping\"}";
  const auto wait = std::chrono::milliseconds(5000);
  // Sessions are accepted in connection order, so once a client is
  // answered every earlier one is a session. The listen backlog holds a
  // full complement of connects (AFullComplementOfClientsConnects...), so
  // the ping every 32 clients only checks the sessions as they come; the
  // last one orders the extra client after all of them.
  std::vector<int> idle;
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    idle.push_back(open_socket());
    ASSERT_TRUE(connect_to(idle.back(), server.port())) << "client " << i;
    if (i % 32 == 31 || i + 1 == kMaxSessions) {
      ASSERT_TRUE(send_all(idle.back(), ping));
      ASSERT_TRUE(is_pong(read_reply(idle.back(), wait))) << "client " << i;
    }
  }

  const int extra = open_socket();
  ASSERT_TRUE(connect_to(extra, server.port()));
  send_all(extra, ping);  // may race the close; the reply is what counts
  const std::string reject = read_reply(extra, wait);
  EXPECT_NE(reject.find("\"type\":\"error\""), std::string::npos) << reject;
  EXPECT_NE(reject.find("session limit " + std::to_string(kMaxSessions)),
            std::string::npos)
      << reject;
  pollfd closed{extra, POLLIN, 0};
  char byte = 0;
  EXPECT_TRUE(::poll(&closed, 1, 5000) == 1 && ::recv(extra, &byte, 1, 0) <= 0)
      << "the rejected client was left open";
  ::close(extra);

  // A held session is still served; one that leaves frees its place. A
  // leave is seen when the loop next reads, so the ping on a held session
  // that follows it orders the two.
  ASSERT_TRUE(send_all(idle.front(), ping));
  EXPECT_TRUE(is_pong(read_reply(idle.front(), wait)));
  ::close(idle.back());
  idle.pop_back();
  ASSERT_TRUE(send_all(idle.front(), ping));
  ASSERT_TRUE(is_pong(read_reply(idle.front(), wait)));
  const int next = open_socket();
  ASSERT_TRUE(connect_to(next, server.port()));
  ASSERT_TRUE(send_all(next, ping));
  EXPECT_TRUE(is_pong(read_reply(next, wait)))
      << "a client was turned away after a session ended";
  ::close(next);
  for (const int fd : idle) ::close(fd);
  server.stop();
}

TEST(Service, AFullComplementOfClientsConnectsWithoutARetransmit) {
  // Regression: rsbd listened with a backlog of 64 but serves up to
  // kMaxSessions sessions, so a burst of connects overflowed the accept
  // queue, and every SYN the kernel dropped cost its client a 1 s
  // retransmit. The backlog is now kMaxSessions: that many blocking
  // connects back to back, with nothing between them, each return at
  // once, and every one of them is then served. One burst overflowed the
  // old backlog only now and then, so the test runs three, each on a
  // fresh server: a server sees a client's leave only when it next reads.
  const std::string ping = "{\"op\":\"ping\"}";
  const auto wait = std::chrono::milliseconds(5000);
  for (int burst = 0; burst < 3; ++burst) {
    Server server({.threads = 1});
    server.start();
    std::vector<int> clients;
    for (std::size_t i = 0; i < kMaxSessions; ++i) {
      clients.push_back(open_socket());
      const auto begin = std::chrono::steady_clock::now();
      ASSERT_TRUE(connect_to(clients.back(), server.port()))
          << "burst " << burst << " client " << i;
      EXPECT_LT(std::chrono::steady_clock::now() - begin,
                std::chrono::milliseconds(500))
          << "burst " << burst << " client " << i
          << " waited for a SYN retransmit";
    }
    for (std::size_t i = 0; i < clients.size(); ++i) {
      ASSERT_TRUE(send_all(clients[i], ping))
          << "burst " << burst << " client " << i;
      EXPECT_TRUE(is_pong(read_reply(clients[i], wait)))
          << "burst " << burst << " client " << i;
    }
    for (const int fd : clients) ::close(fd);
    server.stop();
  }
}

/// Runs rsbd (an in-process Server with one worker) in a forked child and
/// kills it on destruction, so a test whose daemon wedges fails on its own
/// timeouts instead of hanging the suite in Server::stop().
class ForkedDaemon {
 public:
  ForkedDaemon() {
    int ready[2];
    if (::pipe(ready) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(ready[0]);
      try {
        Server server({.threads = 1});
        server.start();
        const int port = server.port();
        if (::write(ready[1], &port, sizeof(port)) == sizeof(port)) {
          for (;;) ::pause();
        }
      } catch (...) {
      }
      ::_exit(1);
    }
    ::close(ready[1]);
    pollfd pfd{ready[0], POLLIN, 0};
    if (pid_ > 0 && ::poll(&pfd, 1, 10000) == 1 &&
        ::read(ready[0], &port_, sizeof(port_)) != sizeof(port_)) {
      port_ = 0;
    }
    ::close(ready[0]);
  }
  ~ForkedDaemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ForkedDaemon(const ForkedDaemon&) = delete;
  ForkedDaemon& operator=(const ForkedDaemon&) = delete;

  /// The daemon's port; 0 if it never came up.
  int port() const { return port_; }

  /// The daemon's process id.
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// The first reply line to `line` on a fresh connection to `port`, or ""
/// when none arrives within `timeout`.
std::string reply_within(int port, const std::string& line,
                         std::chrono::milliseconds timeout) {
  const int fd = open_socket();
  std::string reply;
  if (connect_to(fd, port) && send_all(fd, line)) {
    reply = read_reply(fd, timeout);
  }
  ::close(fd);
  return reply;
}

TEST(Service, OverLargeRunWorkIsANamedRejectNotAWedgedDaemon) {
  // Regression: rsbd admitted loads=2,3 (unsolvable: every run takes all
  // its rounds) at rounds=2000000000 — 10^10 party-steps per run — and the
  // loop thread vanished into its first chunk: pings went unanswered while
  // the knowledge stores grew by gigabytes. Submit now rejects a spec
  // whose per-run work exceeds the work bound, naming it, and the daemon
  // keeps serving.
  const ForkedDaemon daemon;
  ASSERT_NE(daemon.port(), 0) << "the daemon did not come up";
  const std::string reply = reply_within(
      daemon.port(),
      submit_request("loads=2,3\nprotocol=wait-for-singleton-LE\n"
                     "rounds=2000000000\nseeds=1+256"),
      std::chrono::milliseconds(5000));
  EXPECT_NE(reply.find("\"type\":\"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("work bound"), std::string::npos) << reply;
  EXPECT_TRUE(is_pong(reply_within(daemon.port(), "{\"op\":\"ping\"}",
                                   std::chrono::milliseconds(5000))))
      << "no pong within 5 s of the submit";
}

/// VmRSS of process `pid` in kB, from /proc/<pid>/status; -1 if unread.
long vm_rss_kb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(Service, OneLongJobLeavesLaterJobsFastAndGivesItsMemoryBack) {
  // Regression: every knowledge store kept the tables of the largest run
  // it had ever held and refilled them at each reset, so after one long
  // job every later job of the daemon paid for that run on every run of
  // the store that held it — about 1000× slower at 2^21 rounds — and the
  // memory stayed until restart. After one long run at the per-run work
  // bound (one seed, about 0.15 s in an optimized build), a cold job must
  // take at most 3× the same job before it, and the daemon's RSS must
  // come back to within 16 MB plus a quarter of what the long job added.
  const ForkedDaemon daemon;
  ASSERT_NE(daemon.port(), 0) << "the daemon did not come up";
  const auto cold_job_seconds = [&](std::uint64_t first_seed) {
    Client client;
    client.connect(daemon.port());
    const auto start = std::chrono::steady_clock::now();
    const JobResult job = run_job(
        client,
        "loads=1,1,1,1,1,1\nprotocol=wait-for-singleton-LE\n"
        "task=leader-election\norbit=off\nseeds=" +
            std::to_string(first_seed) + "+16384");
    EXPECT_EQ(job.runs_executed, 16384u) << job.done_line;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double before =
      std::min(cold_job_seconds(1'000'000), cold_job_seconds(2'000'000));
  const long rss_before = vm_rss_kb(daemon.pid());
  {
    Client client;
    client.connect(daemon.port());
    const JobResult long_job = run_job(
        client,
        "loads=2,2,2,2\nprotocol=wait-for-singleton-LE\nrounds=131072\n"
        "seeds=1+1");
    EXPECT_EQ(long_job.runs_executed, 1u) << long_job.done_line;
  }
  const long rss_long = vm_rss_kb(daemon.pid());
  const double after = cold_job_seconds(3'000'000);
  const long rss_after = vm_rss_kb(daemon.pid());
  EXPECT_LE(after, 3 * before)
      << "a cold job took " << after << " s after the long job, " << before
      << " s before it";
  ASSERT_GT(rss_before, 0);
  std::cout << "VmRSS before the long job " << rss_before << " kB, after it "
            << rss_long << " kB, after the next cold job " << rss_after
            << " kB\n";
#if defined(__SANITIZE_ADDRESS__)
  // ASan's quarantine keeps up to 256 MB of freed memory resident on
  // purpose, so RSS does not show what the daemon gave back.
  GTEST_SKIP() << "RSS bound not checked under AddressSanitizer";
#endif
  EXPECT_LE(rss_after - rss_before, 16 * 1024 + (rss_long - rss_before) / 4)
      << "VmRSS before the long job " << rss_before << " kB, after it "
      << rss_long << " kB, after the next cold job " << rss_after << " kB";
}

TEST(Service, SeedRangePastTheLastSeedIsANamedRejectNotADeadDaemon) {
  // Regression: seeds=18446744073709551615+2 parsed, first + count wrapped,
  // the job's chunk plan came out empty, and the loop read the first entry
  // of that empty plan: the daemon died on a segfault. Parse now rejects a
  // range whose exclusive end passes 2^64 - 1, naming seeds.
  const ForkedDaemon daemon;
  ASSERT_NE(daemon.port(), 0) << "the daemon did not come up";
  const std::string reply = reply_within(
      daemon.port(),
      submit_request("loads=1,2\nprotocol=wait-for-singleton-LE\n"
                     "task=leader-election\nseeds=18446744073709551615+2"),
      std::chrono::milliseconds(5000));
  EXPECT_NE(reply.find("\"type\":\"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("seeds"), std::string::npos) << reply;
  EXPECT_TRUE(is_pong(reply_within(daemon.port(), "{\"op\":\"ping\"}",
                                   std::chrono::milliseconds(5000))))
      << "no pong within 5 s of the submit";
}

TEST(Service, StartRejectsAZeroQuantumAndAPortOutsideSixteenBits) {
  // Regression: a zero DRR quantum started and accepted jobs, but no
  // client's deficit ever covered a chunk, and with a job pending the poll
  // timeout stayed 0 — the loop spun at full CPU and no row ever came. A
  // port outside [0, 65535] was cast to 16 bits: 70000 listened on 4464.
  // start() now rejects both before binding, naming the field.
  const auto start_error = [](ServerConfig config) -> std::string {
    Server server(config);
    try {
      server.start();
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    server.stop();
    return "start() returned";
  };
  EXPECT_NE(start_error({.threads = 1, .quantum_runs = 0}).find("quantum_runs"),
            std::string::npos);
  EXPECT_NE(start_error({.port = 70000, .threads = 1}).find("port 70000"),
            std::string::npos);
  EXPECT_NE(start_error({.port = -1, .threads = 1}).find("port -1"),
            std::string::npos);
  // The edges of the fields' ranges still start.
  EXPECT_EQ(start_error({.port = 0, .threads = 1, .quantum_runs = 1}),
            "start() returned");
}

TEST(Service, AFailedStartThrowsAgainOnTheNextStart) {
  // Regression: start() marked the server running before the engine
  // rejected its parallel config, so the first start() threw and a second
  // one returned silently, with port() == 0 and nothing listening. start()
  // now validates the whole config first, every time.
  Server server({.threads = -1});
  EXPECT_THROW(server.start(), InvalidArgument);
  EXPECT_THROW(server.start(), InvalidArgument);
  EXPECT_EQ(server.port(), 0);
  // A second start() on a live server stays a no-op.
  Server live({.threads = 1});
  live.start();
  const int port = live.port();
  EXPECT_NE(port, 0);
  live.start();
  EXPECT_EQ(live.port(), port);
  EXPECT_TRUE(is_pong(reply_within(port, "{\"op\":\"ping\"}",
                                   std::chrono::milliseconds(5000))));
  live.stop();
}

/// Resident set size of this process, in kB (VmRSS).
std::int64_t resident_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

TEST(Service, JobMemoryFollowsItsPointsNotItsChunks) {
  // Regression: submit listed every 256-run chunk of a job up front, so one
  // 2^32-run request grew rsbd by ~408 MB and held its loop for over a
  // second before the accepted line. A job now keeps one seed range per
  // point and cuts each chunk off the front of it as it serves it.
  Server server({.threads = 1});
  server.start();
  std::int64_t grown_kb = 0;
  {
    Client client;
    client.connect(server.port());
    const std::int64_t before_kb = resident_kb();
    const Value accepted = Value::parse(client.request(
        submit_request("loads=1,2\nprotocol=wait-for-singleton-LE\n"
                       "task=leader-election\nseeds=0+4294967296")));
    grown_kb = resident_kb() - before_kb;
    ASSERT_EQ(accepted.find("type")->as_string(), "accepted")
        << accepted.serialize();
    EXPECT_EQ(accepted.find("chunks")->as_uint(), 16777216u);
    EXPECT_EQ(accepted.find("runs")->as_uint(), 4294967296u);
  }  // the client hangs up: its job is dropped, not drained by stop()
  EXPECT_LT(grown_kb, 64 * 1024) << "kB the submit added";
  server.stop();
}

TEST(Service, WorkBoundAdmitsExactlyTheBound) {
  // Per-run work is rounds × parties on the blackboard and rounds ×
  // parties × (parties − 1) for message passing; a spec exactly at the
  // bound is admitted (these terminate in a few rounds), one round more
  // is not. Grid points are checked one by one.
  Server server({.threads = 1});
  server.start();
  // One client per submit: an accepted job's rows follow its reply.
  const auto request = [&server](const std::string& spec) {
    Client client;
    client.connect(server.port());
    return Value::parse(client.request(submit_request(spec)));
  };
  const auto submit = [&request](const std::string& model,
                                 std::int64_t rounds) {
    return request("model=" + model +
                   "\nloads=1,1,1,1\nprotocol=wait-for-singleton-LE\n"
                   "rounds=" + std::to_string(rounds) + "\nseeds=0+4");
  };
  const std::int64_t blackboard_rounds = kMaxRunWork / 4;
  const std::int64_t message_rounds = kMaxRunWork / (4 * 3);
  EXPECT_EQ(submit("blackboard", blackboard_rounds).find("type")->as_string(),
            "accepted");
  EXPECT_EQ(submit("message-passing", message_rounds)
                .find("type")
                ->as_string(),
            "accepted");
  const Value over = submit("message-passing", message_rounds + 1);
  ASSERT_EQ(over.find("type")->as_string(), "error");
  EXPECT_NE(over.find("reason")->as_string().find(
                "rounds x parties x (parties - 1) = " +
                std::to_string((message_rounds + 1) * 12) +
                " exceeds the work bound " + std::to_string(kMaxRunWork)),
            std::string::npos)
      << over.serialize();
  const Value grid =
      request("loads=1,1,1,1\nprotocol=wait-for-singleton-LE\nrounds=10|" +
              std::to_string(blackboard_rounds + 1) + "\nseeds=0+4");
  EXPECT_EQ(grid.find("type")->as_string(), "error");
  EXPECT_NE(grid.find("reason")->as_string().find("rounds x parties = " +
                                                  std::to_string(kMaxRunWork +
                                                                 4)),
            std::string::npos)
      << grid.serialize();
  EXPECT_EQ(server.stats().jobs_rejected, 0u);  // spec errors != admission
  server.stop();
}

// ------------------------------------------------- gathered chunk sweeps

/// The stats op's reply, parsed.
Value stats_reply(Client& client) {
  const Value stats = Value::parse(client.request("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.find("type")->as_string(), "stats");
  return stats;
}

TEST(Service, RandomWiringRowsMatchTheReferenceAtEveryChunk) {
  // Message passing under the default random-per-run wiring: each row's
  // port stream starts at its chunk's first seed, as run_chunk's does.
  // These loads split by wiring, so five of the six rows change when a
  // chunk's stream starts elsewhere (loads=2,3's rows do not). The range
  // starts off the chunk grid and spans six chunks, which one step sweeps
  // together.
  const std::string spec =
      "model=message-passing\nloads=2,2\nprotocol=wait-for-singleton-LE\n"
      "task=leader-election\nseeds=100+1300";
  const std::vector<std::string> expected = reference_for(spec);
  ASSERT_EQ(expected.size(), 6u);
  for (const ServerConfig& config :
       {ServerConfig{.threads = 2}, ServerConfig{}}) {
    Server server(config);
    server.start();
    Client client;
    client.connect(server.port());
    const JobResult job = run_job(client, spec);
    EXPECT_EQ(job.runs_executed, 1300u);
    ASSERT_EQ(job.rows.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(job.rows[i], expected[i])
          << "threads " << config.threads << " chunk " << i;
    }
    server.stop();
  }
}

TEST(Service, TheJobCycleKeepsEveryRunAndCacheCounter) {
  // service-mix's job cycle on one client: a cold 16,384-run all-private
  // n=6 job, its warm repeat, and the range shifted by 8,192 + 77 seeds
  // (a 179-run edge, 31 warm chunks, 32 cold ones and a 77-run edge).
  // The stats op's counters equal what serving one chunk per step gave,
  // with the default cache and with one of about 35 entries, where LRU
  // order decides what each job finds; a step that looked a chunk up
  // twice, or skipped a lookup, would move them.
  const std::string spec =
      "loads=1,1,1,1,1,1\nprotocol=wait-for-singleton-LE\n"
      "task=leader-election\nrounds=300\nseeds=";
  struct Counters {
    std::uint64_t runs_executed, runs_cached, hits, misses, insertions,
        evictions;
  };
  const std::pair<std::uint64_t, Counters> cases[] = {
      {64ull << 20, {24832, 24320, 95, 98, 98, 0}},
      {16ull << 10, {41216, 7936, 31, 162, 162, 127}},
  };
  for (const auto& [cache_bytes, want] : cases) {
    Server server({.cache_bytes = cache_bytes});
    server.start();
    Client client;
    client.connect(server.port());
    run_job(client, spec + "0+16384");
    run_job(client, spec + "0+16384");
    run_job(client, spec + std::to_string(8192 + 77) + "+16384");
    const Value stats = stats_reply(client);
    const Value& cache = *stats.find("cache");
    EXPECT_EQ(stats.find("runs_executed")->as_uint(), want.runs_executed);
    EXPECT_EQ(stats.find("runs_cached")->as_uint(), want.runs_cached);
    EXPECT_EQ(cache.find("hits")->as_uint(), want.hits);
    EXPECT_EQ(cache.find("misses")->as_uint(), want.misses);
    EXPECT_EQ(cache.find("insertions")->as_uint(), want.insertions);
    EXPECT_EQ(cache.find("evictions")->as_uint(), want.evictions);
    server.stop();
  }
}

TEST(Service, ALoneColdJobRunsOneSweepPerQuantum) {
  // At the default 4,096-run quantum a lone client's credit covers 16
  // chunks, so a cold 16,384-run job (64 chunks) runs in 4 engine sweeps
  // and its warm repeat in none. A sweep never crosses an installment:
  // each point of a two-point grid request is swept on its own.
  Server server(ServerConfig{});
  server.start();
  Client client;
  client.connect(server.port());
  const auto sweeps = [&client] {
    const Value stats = stats_reply(client);
    const Value* member = stats.find("engine_sweeps");
    EXPECT_NE(member, nullptr) << stats.serialize();
    return member != nullptr ? member->as_uint() : 0;
  };
  const std::string spec =
      "loads=1,1,1,1,1,1\nprotocol=wait-for-singleton-LE\n"
      "task=leader-election\nseeds=0+16384";
  EXPECT_EQ(run_job(client, spec).runs_executed, 16384u);
  EXPECT_EQ(sweeps(), 4u);
  EXPECT_EQ(run_job(client, spec).runs_executed, 0u);
  EXPECT_EQ(sweeps(), 4u);
  const std::string grid =
      "loads=1,2\nprotocol=wait-for-singleton-LE\nrounds=30|50\nseeds=0+300";
  const JobResult points = run_job(client, grid);
  EXPECT_EQ(points.runs_executed, 600u);
  EXPECT_EQ(points.rows.size(), 4u);
  EXPECT_EQ(server.stats().engine_sweeps, 6u);
  server.stop();
}

TEST(Service, AHugeQuantumStillCapsASweepAtTheShardCeiling) {
  // A 2^21-run quantum covers every chunk of this job, and one-round runs
  // of three parties are cheap enough for the work bound to admit far
  // more than 4,096 chunks; the sweep still stops at the engine's shard
  // ceiling, so 4,097 chunks take two sweeps.
  Server server({.threads = 2, .quantum_runs = 1ull << 21});
  server.start();
  Client client;
  client.connect(server.port());
  const std::string spec =
      "loads=1,2\nprotocol=wait-for-singleton-LE\nrounds=1\nseeds=0+" +
      std::to_string(kMaxChunksPerBatch * kChunkRuns + 1);
  const JobResult job = run_job(client, spec);
  EXPECT_EQ(job.rows.size(), kMaxChunksPerBatch + 1);
  EXPECT_EQ(server.stats().engine_sweeps, 2u);
  server.stop();
}

TEST(Service, ASweepHoldsAtMostOneAdmissionBoundChunkOfWork) {
  // Per-run work 2^18 rounds × 2 parties is half the admission bound, so a
  // sweep of two or more chunks may hold 2^28 / 2^19 = 512 runs: the four
  // chunks take two sweeps though the credit covers sixteen. The rows are
  // still the reference bytes.
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());
  const std::string spec =
      "loads=1,1\nprotocol=wait-for-singleton-LE\nrounds=" +
      std::to_string(kMaxRunWork / 4) + "\nseeds=0+1024";
  const JobResult job = run_job(client, spec);
  EXPECT_EQ(server.stats().engine_sweeps, 2u);
  const std::vector<std::string> expected = reference_for(spec);
  ASSERT_EQ(job.rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(job.rows[i], expected[i]) << "chunk " << i;
  }
  server.stop();
}

// ---------------------------------------------------------- chunk rule

TEST(ChunkPlan, CutsRangesAtAbsoluteMultiplesOfTheChunkSize) {
  constexpr std::uint64_t kLast = std::numeric_limits<std::uint64_t>::max();
  const std::pair<SeedRange, std::vector<SeedRange>> cases[] = {
      // Aligned: whole chunks only.
      {SeedRange::of(256, 512), {{256, 256}, {512, 256}}},
      // Misaligned edges around whole interior chunks.
      {SeedRange::of(100, 600), {{100, 156}, {256, 256}, {512, 188}}},
      {SeedRange::of(0, 600), {{0, 256}, {256, 256}, {512, 88}}},
      // Inside one chunk, and exactly one chunk's tail.
      {SeedRange::of(300, 5), {{300, 5}}},
      {SeedRange::of(300, 212), {{300, 212}}},
      // Ending at 2^64 - 1 (exclusive): no boundary past it may wrap.
      {SeedRange::of(kLast - 300, 300),
       {{kLast - 300, 45}, {kLast - 255, 255}}},
      {SeedRange::of(kLast - 1, 1), {{kLast - 1, 1}}},
      {SeedRange::of(5, 0), {}},
  };
  for (const auto& [range, chunks] : cases) {
    EXPECT_EQ(chunk_plan(range), chunks)
        << "range " << range.first << "+" << range.count;
    EXPECT_EQ(chunk_count(range), chunks.size())
        << "range " << range.first << "+" << range.count;
  }
  // chunk_count never lists: 2^32 runs from seed 0 are 2^24 chunks.
  EXPECT_EQ(chunk_count(SeedRange::of(0, std::uint64_t{1} << 32)),
            std::uint64_t{1} << 24);
  EXPECT_EQ(chunk_count(SeedRange::of(1, kLast - 1)), (kLast >> 8) + 1);
}

// -------------------------------------------------------- result cache

TEST(ResultCache, StatsTrackInsertsUpdatesAndRejections) {
  ResultCache cache(2 * ResultCache::kEntryOverhead + 64);
  const ResultCache::Key key{1, 0, 256};

  // An entry larger than the whole budget is rejected before any
  // accounting: no insertion counted, nothing retained, bytes untouched.
  cache.insert(key, {std::string(4096, 'x'), RunStats{}});
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());

  // Insert + refresh of the same key: two insertions, still one entry,
  // and the charged bytes track the refreshed payload, not the sum.
  cache.insert(key, {"aa", RunStats{}});
  cache.insert(key, {"bbbb", RunStats{}});
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, ResultCache::kEntryOverhead + 4);
  ASSERT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.lookup(key)->payload, "bbbb");

  // A second key fits; a third evicts the least-recently-used (the
  // budget holds two) and the entry count stays honest.
  cache.insert({2, 0, 256}, {"cc", RunStats{}});
  cache.insert({3, 0, 256}, {"dd", RunStats{}});
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().insertions, 4u);

  // An oversized refresh of a *live* key must not take the update path
  // either — the old entry survives untouched.
  cache.insert({3, 0, 256}, {std::string(4096, 'y'), RunStats{}});
  EXPECT_EQ(cache.stats().entries, 2u);
  ASSERT_TRUE(cache.lookup({3, 0, 256}).has_value());
  EXPECT_EQ(cache.lookup({3, 0, 256})->payload, "dd");
}

// ---------------------------------------------------------- json escapes

TEST(Json, UnicodeEscapesAboveAsciiAreExplicitParseErrors) {
  // ASCII escapes decode; anything above 0x7F is an error naming the
  // offending escape and the supported alternative — never a silent
  // mangle into a wrong byte.
  EXPECT_EQ(Value::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Value::parse("\"\\u007f\"").as_string(), "\x7f");
  try {
    Value::parse("\"\\u0080\"");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\\u0080"), std::string::npos) << what;
    EXPECT_NE(what.find("raw UTF-8"), std::string::npos) << what;
  }
  EXPECT_THROW(Value::parse("\"\\ud83d\""), InvalidArgument);  // surrogate
  EXPECT_THROW(Value::parse("\"\\uFFFF\""), InvalidArgument);
  EXPECT_THROW(Value::parse("\"\\u00\""), InvalidArgument);    // truncated
  EXPECT_THROW(Value::parse("\"\\u00zz\""), InvalidArgument);  // bad hex
}

TEST(Service, NonAsciiEscapeInRequestIsARejectLineNotADeadDaemon) {
  Server server({.threads = 1});
  server.start();
  Client client;
  client.connect(server.port());

  const Value reject =
      Value::parse(client.request("{\"op\":\"ping\",\"note\":\"\\u00e9\"}"));
  EXPECT_EQ(reject.find("type")->as_string(), "error");
  EXPECT_NE(reject.find("reason")->as_string().find("escapes above ASCII"),
            std::string::npos);
  // The session survives; raw UTF-8 bytes in the same position are fine.
  const Value pong =
      Value::parse(client.request("{\"op\":\"ping\",\"note\":\"caf\xc3\xa9\"}"));
  EXPECT_EQ(pong.find("type")->as_string(), "pong");
  server.stop();
}

// ---------------------------------------------------------- json nesting

TEST(Json, DeepNestingIsANamedParseErrorNotAStackOverflow) {
  // The parser recurses once per array/object level: 100k levels of '['
  // would overflow any thread's stack. It stops at its nesting cap with an
  // error naming the cap and the offset.
  try {
    Value::parse(std::string(100000, '['));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting deeper than " +
                        std::to_string(json::kMaxNesting) + " at offset " +
                        std::to_string(json::kMaxNesting)),
              std::string::npos)
        << what;
  }
  std::string objects;
  for (int level = 0; level < 100000; ++level) objects += "{\"a\":";
  EXPECT_THROW(Value::parse(objects), InvalidArgument);
  // Exactly the cap still parses, and round-trips byte for byte.
  const std::string at_cap = std::string(json::kMaxNesting, '[') +
                             std::string(json::kMaxNesting, ']');
  EXPECT_EQ(Value::parse(at_cap).serialize(), at_cap);
  EXPECT_THROW(Value::parse("[" + at_cap + "]"), InvalidArgument);
}

TEST(Service, DeeplyNestedRequestIsARejectLineNotADeadDaemon) {
  Server server({.threads = 1});
  server.start();
  Client client;
  client.connect(server.port());

  const Value reject =
      Value::parse(client.request(std::string(100000, '[')));
  EXPECT_EQ(reject.find("type")->as_string(), "error");
  EXPECT_NE(reject.find("reason")->as_string().find("nesting deeper than"),
            std::string::npos);
  // The daemon is alive: a new connection still gets its pong.
  Client fresh;
  fresh.connect(server.port());
  const Value pong = Value::parse(fresh.request("{\"op\":\"ping\"}"));
  EXPECT_EQ(pong.find("type")->as_string(), "pong");
  server.stop();
}

// ------------------------------------------------------- adaptive sweeps

TEST(Service, AdaptiveSweepSpendsTheBudgetAndStreamsReferenceBytes) {
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());

  // Two points, budget 200, pilot 50: the pilot covers 100 runs, four
  // allocation rounds spend the other 100.
  const std::string adaptive =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "rounds=30|50\nseeds=0+600\nadaptive-budget=200\npilot=50";
  const Value accepted =
      Value::parse(client.request(submit_request(adaptive)));
  ASSERT_EQ(accepted.find("type")->as_string(), "accepted");
  EXPECT_EQ(accepted.find("points")->as_uint(), 2u);
  EXPECT_EQ(accepted.find("runs")->as_uint(), 200u);  // the budget
  ASSERT_NE(accepted.find("adaptive"), nullptr);
  EXPECT_TRUE(accepted.find("adaptive")->as_bool());
  EXPECT_EQ(accepted.find("pilot")->as_uint(), 50u);

  // Per-point experiments for reference row computation.
  std::vector<Experiment> specs;
  for (const SpecPoint& point : expand_request(adaptive)) {
    specs.push_back(point.spec.to_experiment());
  }
  Engine reference_engine;

  std::vector<std::uint64_t> point_runs(2, 0);
  std::uint64_t total = 0;
  std::string done_line;
  while (auto line = client.read_line()) {
    const Value msg = Value::parse(*line);
    if (msg.find("type")->as_string() != "row") {
      done_line = *line;
      break;
    }
    const std::uint64_t point = msg.find("point")->as_uint();
    const Value* row = msg.find("row");
    const SeedRange chunk = SeedRange::of(row->find("seed_first")->as_uint(),
                                          row->find("seeds")->as_uint());
    // Every streamed chunk is byte-identical to executing that exact
    // (spec, range) in process — adaptivity never reaches row content.
    EXPECT_EQ(row->serialize(),
              run_chunk(reference_engine, specs[point], chunk, nullptr))
        << "point " << point << " first " << chunk.first;
    point_runs[point] += chunk.count;
    total += chunk.count;
  }
  EXPECT_EQ(total, 200u);
  for (const std::uint64_t runs : point_runs) EXPECT_GE(runs, 50u);
  const Value done = Value::parse(done_line);
  EXPECT_EQ(done.find("type")->as_string(), "done");
  EXPECT_EQ(done.find("runs")->as_uint(), 200u);
  EXPECT_EQ(done.find("runs_executed")->as_uint() +
                done.find("runs_cached")->as_uint(),
            200u);
  EXPECT_EQ(done.find("summary")->find("seeds")->as_uint(), 200u);

  // The schedule is deterministic, so a repeat of the same request plans
  // the same chunks and streams entirely from cache.
  const std::uint64_t executed_after_cold = server.stats().runs_executed;
  const JobResult warm = run_job(client, adaptive);
  EXPECT_EQ(server.stats().runs_executed, executed_after_cold);
  EXPECT_EQ(warm.runs_executed, 0u);
  EXPECT_EQ(warm.runs_cached, 200u);
  server.stop();
}

TEST(Service, AdaptiveRowsAreRunGridAdaptivesScheduleCutIntoChunks) {
  // rsbd and run_grid_adaptive follow one schedule: the (point, seed_first,
  // seeds) of every row an adaptive job streams are run_grid_adaptive's
  // installments over the same points, budget and pilot, each cut by
  // chunk_plan.
  const std::string requests[] = {
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "rounds=30|50\nseeds=0+600\nadaptive-budget=200\npilot=50",
      "model=message-passing\nloads=2,3\nprotocol=wait-for-singleton-LE\n"
      "task=leader-election\nrounds=4|8|300\nseeds=100+700\n"
      "adaptive-budget=900\npilot=40",
      "loads=1,1,1,1,1\nprotocol=wait-for-singleton-LE\n"
      "task=t-resilient-leader-election(2)\nfault-crashes=0|1|2\n"
      "fault-window=6\nrounds=12|300\nseeds=0+600\nadaptive-budget=1500",
  };
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());
  for (const std::string& request : requests) {
    using Row = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
    std::vector<Row> served;
    const Value accepted =
        Value::parse(client.request(submit_request(request)));
    ASSERT_EQ(accepted.find("type")->as_string(), "accepted") << request;
    while (auto line = client.read_line()) {
      const Value msg = Value::parse(*line);
      if (msg.find("type")->as_string() != "row") break;
      served.emplace_back(msg.find("point")->as_uint(),
                          msg.find("row")->find("seed_first")->as_uint(),
                          msg.find("row")->find("seeds")->as_uint());
    }

    // The same points as a Grid with one axis of whole specs.
    const std::vector<SpecPoint> points = expand_request(request);
    std::vector<std::string> labels;
    std::vector<Grid::Apply> apply;
    for (const SpecPoint& point : points) {
      labels.push_back(point.label);
      apply.push_back([spec = point.spec.to_experiment()](Experiment& e) {
        e = spec;
      });
    }
    Grid grid(points.front().spec.to_experiment());
    grid.over("point", std::move(labels), std::move(apply));
    const CanonicalSpec& knobs = points.front().spec;
    AdaptiveConfig config;
    if (knobs.pilot != 0) config.pilot = knobs.pilot;
    Engine engine;
    const auto adaptive =
        run_grid_adaptive(engine, grid, knobs.adaptive_budget, config);
    std::vector<Row> expected;
    for (const AdaptiveAssignment& slot : adaptive.schedule) {
      for (const SeedRange& chunk : chunk_plan(slot.range)) {
        expected.emplace_back(slot.point, chunk.first, chunk.count);
      }
    }
    EXPECT_EQ(served, expected) << request;
  }
  server.stop();
}

TEST(Service, AdaptiveKnobsAreHashInertAndShareTheCacheNamespace) {
  // The adaptive knobs must not reach the canonical identity: the same
  // ensemble with and without them hashes identically, so an adaptive
  // sweep's chunks prime the cache for uniform requests (and vice versa
  // when ranges align).
  const std::string base =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n"
      "seeds=0+600";
  const CanonicalSpec plain = CanonicalSpec::parse(base);
  const CanonicalSpec knobbed =
      CanonicalSpec::parse(base + "\nadaptive-budget=300\npilot=50");
  EXPECT_EQ(plain.hash(), knobbed.hash());
  EXPECT_EQ(plain.canonical_text(), knobbed.canonical_text());
  EXPECT_EQ(knobbed.adaptive_budget, 300u);
  EXPECT_EQ(knobbed.pilot, 50u);
  // pilot=0 is a spelled-out error, not a silent default.
  EXPECT_THROW(CanonicalSpec::parse(base + "\npilot=0"), InvalidArgument);
}

TEST(Service, OrbitKeyIsAcceptedAndChangesNothing) {
  // `orbit=` is an accepted, hash-inert key that selects nothing: rows are
  // the reference bytes, `runs_deduped` reads 0 on the done line and on
  // the stats line, and the `orbit=off` repeat is the same ensemble, so it
  // is served wholly from the cache.
  const std::string spec =
      "loads=1,1,1,1,1,1\nprotocol=blackboard-unique-string-LE\n"
      "task=leader-election\nseeds=0+600";
  Server server({.threads = 2});
  server.start();
  Client client;
  client.connect(server.port());

  const JobResult job = run_job(client, spec);
  const std::vector<std::string> expected = reference_for(spec);
  ASSERT_EQ(job.rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(job.rows[i], expected[i]) << "chunk " << i;
  }
  EXPECT_EQ(job.runs_executed, 600u);
  EXPECT_EQ(job.runs_deduped, 0u);

  const Value stats = Value::parse(client.request("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.find("runs_deduped")->as_uint(), 0u);

  const JobResult brute = run_job(client, spec + "\norbit=off");
  EXPECT_EQ(brute.runs_cached, 600u);
  EXPECT_EQ(brute.runs_executed, 0u);
  EXPECT_EQ(brute.runs_deduped, 0u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(brute.rows[i], expected[i]) << "chunk " << i;
  }
  server.stop();
}

TEST(Service, AdaptiveSubmitValidationRejectsWithReasons) {
  Server server({.threads = 1});
  server.start();
  Client client;
  client.connect(server.port());
  const std::string base =
      "loads=1,2\nprotocol=wait-for-singleton-LE\ntask=leader-election\n";

  // Budget below points x pilot.
  const Value small = Value::parse(client.request(
      submit_request(base + "seeds=0+600\nadaptive-budget=40\npilot=50")));
  EXPECT_EQ(small.find("type")->as_string(), "error");
  EXPECT_NE(small.find("reason")->as_string().find("cannot cover the pilot"),
            std::string::npos);
  // Pilot past the declared seed range.
  const Value deep = Value::parse(client.request(
      submit_request(base + "seeds=0+40\nadaptive-budget=100\npilot=50")));
  EXPECT_EQ(deep.find("type")->as_string(), "error");
  EXPECT_NE(deep.find("reason")->as_string().find("exceeds the per-point"),
            std::string::npos);
  // Budget past the request's total seed capacity.
  const Value fat = Value::parse(client.request(
      submit_request(base + "seeds=0+60\nadaptive-budget=100\npilot=20")));
  EXPECT_EQ(fat.find("type")->as_string(), "error");
  EXPECT_NE(fat.find("reason")->as_string().find("seed capacity"),
            std::string::npos);
  // The budget cannot be a grid axis — one pool is shared by the request.
  const Value axis = Value::parse(client.request(submit_request(
      base + "seeds=0+600\nadaptive-budget=100|200\npilot=20")));
  EXPECT_EQ(axis.find("type")->as_string(), "error");
  EXPECT_NE(axis.find("reason")->as_string().find("grid axes"),
            std::string::npos);
  // None of it was admitted; the daemon is still serving.
  const Value pong = Value::parse(client.request("{\"op\":\"ping\"}"));
  EXPECT_EQ(pong.find("type")->as_string(), "pong");
  server.stop();
}

}  // namespace
}  // namespace rsb::service
