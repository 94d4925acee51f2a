#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <tuple>

#include "engine/grid.hpp"
#include "service/canonical.hpp"
#include "service/json.hpp"
#include "service/rows.hpp"
#include "util/error.hpp"
#include "util/json_string.hpp"

namespace rsb::service {

namespace {

/// Caps a request line, and the output a session may queue before the
/// loop stops serving and reading it until its client reads.
constexpr std::size_t kMaxLineBytes = 1 << 20;
constexpr int kPollMillis = 200;

/// The most work a sweep of two or more chunks may hold, in runs times
/// CanonicalSpec::run_work: one chunk at the admission bound. Gathering
/// chunks into one sweep thus never holds the loop for more estimated
/// work than the largest single chunk rsbd admits.
constexpr std::uint64_t kMaxSweepWork =
    kChunkRuns * static_cast<std::uint64_t>(kMaxRunWork);

std::string quoted(const std::string& s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

std::string error_line(const std::string& reason) {
  return "{\"type\":\"error\",\"ok\":false,\"reason\":" + quoted(reason) + "}";
}

bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

/// True when `chunk` is one of chunk_plan(range)'s chunks, in O(1): it
/// starts inside `range` at one of its cuts, and the chunk rule cuts it
/// there.
bool is_chunk_of(SeedRange chunk, SeedRange range) {
  const std::uint64_t offset = chunk.first - range.first;
  if (chunk.first < range.first || offset >= range.count) return false;
  if (offset != 0 && chunk.first % kChunkRuns != 0) return false;
  return first_chunk(SeedRange::of(chunk.first, range.count - offset)) ==
         chunk;
}

}  // namespace

// -------------------------------------------------------------------- job

/// One admitted submit: the expanded points and the installments it has
/// yet to stream — (point, seed range) pairs in point-then-seed order,
/// each served as rows by cutting rows.hpp's first_chunk off its front. A
/// uniform job queues one installment per point at submit; an adaptive job
/// queues its schedule's pilot, then each next round once the last chunk
/// of the round before has merged. A job's memory follows its points, not
/// its chunks.
struct Server::Job {
  struct Point {
    std::string label;
    std::uint64_t hash = 0;
    std::uint64_t run_work = 0;  // CanonicalSpec::run_work
    Experiment spec;
  };

  /// The key of one of this job's chunks in `fulfilled`.
  static std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> dedup_key(
      const Point& point, SeedRange chunk) {
    return {point.hash, chunk.first, chunk.count};
  }

  std::uint64_t id = 0;
  std::vector<Point> points;
  std::vector<AdaptiveAssignment> installments;
  std::optional<AdaptiveSchedule> adaptive;  // `adaptive-budget=` specs
  SeedRange request_seeds;  // shared by every point (seeds is not an axis)

  /// Chunks another job's execution already produced (cross-job dedup),
  /// keyed by (spec hash, first seed, run count); the claim path consumes
  /// and erases a matching entry instead of executing or consulting the
  /// cache. Filled only for *unclaimed* chunks, so a handed-over shard is
  /// always eventually claimed and the map drains by the time the job
  /// finishes.
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           ResultCache::Entry>
      fulfilled;

  std::uint64_t rows_emitted = 0;
  std::uint64_t runs_total = 0;
  std::uint64_t runs_executed = 0;
  std::uint64_t runs_cached = 0;
  RunStats summary;

  bool finished() const noexcept { return installments.empty(); }
};

// ---------------------------------------------------------------- session

/// One connected client on a non-blocking socket. `in` holds bytes read
/// but not yet a full line; `out` holds reply and row bytes the socket has
/// not taken yet. `dead` flips once (EOF, read or send error); pick_next
/// then drops the session's jobs and erases it, closing the fd.
struct Server::Session {
  explicit Session(int socket) : fd(socket) {}
  ~Session() { ::close(fd); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int fd;
  bool dead = false;
  std::string in;
  std::string out;
  std::deque<Job> jobs;       // the front job is the one being served
  std::uint64_t deficit = 0;  // DRR credit, in runs

  /// The client is behind on reading: the loop neither serves nor reads
  /// this session until the outbox drains below the bound.
  bool backlogged() const noexcept { return out.size() > kMaxLineBytes; }

  /// Queues `line` + '\n' and sends what the socket takes now.
  void send_line(const std::string& line) {
    if (dead) return;
    out += line;
    out += '\n';
    flush();
  }

  /// Sends queued bytes until the socket would block.
  void flush() {
    while (!dead && !out.empty()) {
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n < 0 && would_block()) return;
      if (n <= 0) {
        dead = true;
        return;
      }
      out.erase(0, static_cast<std::size_t>(n));
    }
  }
};

Server::Server(ServerConfig config)
    : config_(config), cache_(config.cache_bytes) {}

Server::~Server() { stop(); }

void Server::start() {
  // A zero quantum never lets a deficit cover a chunk, so the loop would
  // spin on a pending job forever; a port outside 16 bits would wrap into
  // another port at htons().
  if (config_.quantum_runs == 0) {
    throw InvalidArgument("ServerConfig: quantum_runs must be >= 1, got 0");
  }
  if (config_.port < 0 || config_.port > 65535) {
    throw InvalidArgument("ServerConfig: port " + std::to_string(config_.port) +
                          " is outside [0, 65535]");
  }
  // Validated before running_ is set, so a rejected config throws from
  // every start(), and without touching a live server's engine.
  const ParallelConfig parallel{config_.threads, 0};
  parallel.validate();
  if (running_.exchange(true)) return;
  engine_.set_parallel(parallel);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    running_.store(false);
    throw Error("rsbd: socket() failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  // The backlog holds a full complement of sessions: a connect burst past
  // it loses SYNs, and each lost SYN costs its client a 1 s retransmit.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, static_cast<int>(kMaxSessions)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw Error("rsbd: cannot listen on 127.0.0.1:" +
                std::to_string(config_.port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  loop_thread_ = std::thread([this] { loop(); });
}

void Server::begin_drain() {
  draining_.store(true);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.draining = true;
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  begin_drain();
  // The loop drains every admitted job and flushes every live outbox
  // before it returns; the listener and sessions are closed only after.
  if (loop_thread_.joinable()) loop_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  sessions_.clear();
}

void Server::loop() {
  while (true) {
    const Pick pick = pick_next();
    if (pick.session != nullptr) serve_step(*pick.session);
    const bool unsent =
        std::any_of(sessions_.begin(), sessions_.end(), [](const auto& s) {
          return !s->dead && !s->out.empty();
        });
    if (!running_.load() && pending_jobs_ == 0 && !unsent) return;
    // An idle timeout also retries a paused listener: ENFILE can clear
    // without any session of ours ending.
    if (poll_sockets(pick.any_pending ? 0 : kPollMillis) == 0 &&
        !pick.any_pending) {
      accepting_ = true;
    }
  }
}

int Server::poll_sockets(int timeout_ms) {
  // Ask for output readiness only where output is queued, and stop
  // reading a client that is behind on reading its replies.
  polled_.clear();
  const bool listening = accepting_;
  if (listening) polled_.push_back({listen_fd_, POLLIN, 0});
  for (const auto& session : sessions_) {
    short events = session->backlogged() ? 0 : POLLIN;
    if (!session->out.empty()) events |= POLLOUT;
    polled_.push_back({session->fd, events, 0});
  }
  const int ready = ::poll(polled_.data(), polled_.size(), timeout_ms);
  if (ready <= 0) return ready;
  const std::size_t polled_sessions = sessions_.size();
  if (listening && polled_.front().revents != 0) accept_clients();
  for (std::size_t i = 0; i < polled_sessions; ++i) {
    Session& session = *sessions_[i];
    const short revents = polled_[(listening ? 1 : 0) + i].revents;
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !session.backlogged()) {
      read_requests(session);
    }
    if ((revents & (POLLOUT | POLLHUP | POLLERR)) != 0) session.flush();
  }
  return ready;
}

void Server::accept_clients() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      // Out of descriptors, the listener stays readable: polling it would
      // spin until a session ends and frees one (pick_next re-arms it).
      if (errno == EMFILE || errno == ENFILE) accepting_ = false;
      return;
    }
    if (sessions_.size() >= kMaxSessions) {
      // Past the session bound: one reject line into the fresh socket's
      // empty send buffer (it never blocks), then close.
      const std::string reject =
          error_line("session limit " + std::to_string(kMaxSessions) +
                     " reached; try again later") +
          '\n';
      ::send(fd, reject.data(), reject.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    // Rows follow a job's first reply in small writes; with Nagle's
    // algorithm on, each waits for the client's delayed ACK (~40 ms).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sessions_.push_back(std::make_unique<Session>(fd));
    // Answer what the client already sent before the next chunk runs.
    read_requests(*sessions_.back());
  }
}

void Server::read_requests(Session& session) {
  if (session.dead) return;
  char scratch[1 << 16];
  const ssize_t n = ::recv(session.fd, scratch, sizeof(scratch), 0);
  if (n < 0 && would_block()) return;
  if (n <= 0) {  // EOF or error: the client hung up
    session.dead = true;
    return;
  }
  session.in.append(scratch, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t nl = session.in.find('\n');
       nl != std::string::npos && !session.dead;
       nl = session.in.find('\n', start)) {
    std::string line = session.in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) session.send_line(handle_request(session, line));
  }
  session.in.erase(0, start);
  if (session.in.size() > kMaxLineBytes) {
    session.send_line(error_line("request line exceeds 1 MiB"));
    session.dead = true;
  }
}

std::string Server::handle_request(Session& session, const std::string& line) {
  try {
    const json::Value request = json::Value::parse(line);
    const json::Value* op = request.find("op");
    if (op == nullptr || !op->is_string()) {
      return error_line("request wants a string \"op\" member");
    }
    if (op->as_string() == "ping") {
      return "{\"type\":\"pong\",\"ok\":true}";
    }
    if (op->as_string() == "stats") {
      const ServerStats s = stats();
      std::string out = "{\"type\":\"stats\",\"ok\":true";
      out += ",\"jobs_submitted\":" + std::to_string(s.jobs_submitted);
      out += ",\"jobs_rejected\":" + std::to_string(s.jobs_rejected);
      out += ",\"jobs_completed\":" + std::to_string(s.jobs_completed);
      out += ",\"runs_executed\":" + std::to_string(s.runs_executed);
      out += ",\"runs_cached\":" + std::to_string(s.runs_cached);
      // ignored; the benchmark PR (ROADMAP item 2) deletes it
      out += ",\"runs_deduped\":0";
      out += ",\"engine_sweeps\":" + std::to_string(s.engine_sweeps);
      out += ",\"draining\":";
      out += s.draining ? "true" : "false";
      out += ",\"cache\":{\"hits\":" + std::to_string(s.cache.hits);
      out += ",\"misses\":" + std::to_string(s.cache.misses);
      out += ",\"insertions\":" + std::to_string(s.cache.insertions);
      out += ",\"evictions\":" + std::to_string(s.cache.evictions);
      out += ",\"entries\":" + std::to_string(s.cache.entries);
      out += ",\"bytes\":" + std::to_string(s.cache.bytes);
      out += "}}";
      return out;
    }
    if (op->as_string() == "shutdown") {
      begin_drain();
      shutdown_requested_.store(true);
      return "{\"type\":\"shutdown-ack\",\"ok\":true,\"draining\":true}";
    }
    if (op->as_string() == "submit") {
      const json::Value* spec = request.find("spec");
      if (spec == nullptr || !spec->is_string()) {
        return error_line("submit wants a string \"spec\" member");
      }
      return handle_submit(session, spec->as_string());
    }
    return error_line("unknown op '" + op->as_string() + "'");
  } catch (const std::exception& e) {
    // rsb::Error reasons go out verbatim; anything else (std::bad_alloc,
    // ...) fails this one request, never the daemon.
    return error_line(e.what());
  }
}

std::string Server::handle_submit(Session& session,
                                  const std::string& spec_text) {
  // Expansion and validation happen before admission: a malformed spec is
  // an error reply, never a queued job.
  Job job;
  std::string hashes;
  std::uint64_t budget = 0;
  std::uint64_t pilot = 0;
  for (SpecPoint& point : expand_request(spec_text, config_.max_points)) {
    if (job.points.empty()) {
      budget = point.spec.adaptive_budget;
      pilot = point.spec.pilot;
    } else if (point.spec.adaptive_budget != budget ||
               point.spec.pilot != pilot) {
      throw InvalidArgument(
          "spec: adaptive-budget/pilot cannot be grid axes — one budget is "
          "shared by every point of the request");
    }
    point.spec.check_run_work();
    Job::Point expanded;
    expanded.label = std::move(point.label);
    expanded.hash = point.spec.hash();
    expanded.run_work = static_cast<std::uint64_t>(point.spec.run_work());
    expanded.spec = point.spec.to_experiment();
    job.request_seeds = point.spec.seeds;
    if (!hashes.empty()) hashes += ',';
    hashes += quoted(point.spec.hash_hex());
    job.points.push_back(std::move(expanded));
  }
  const std::uint64_t n_points = job.points.size();
  if (job.request_seeds.count >
      std::numeric_limits<std::uint64_t>::max() / n_points) {
    throw InvalidArgument("spec: " + std::to_string(n_points) +
                          " points x seeds=" +
                          std::to_string(job.request_seeds.count) +
                          " runs do not fit in 64 bits");
  }

  AdaptiveConfig adaptive_config;
  if (budget != 0) {
    if (pilot != 0) adaptive_config.pilot = pilot;
    job.adaptive.emplace(
        std::vector<SeedRange>(job.points.size(), job.request_seeds), budget,
        adaptive_config);
    job.installments = job.adaptive->next_round();
    job.runs_total = budget;
  } else {
    for (std::size_t p = 0; p < job.points.size(); ++p) {
      job.installments.push_back(AdaptiveAssignment{p, job.request_seeds});
    }
    job.runs_total = n_points * job.request_seeds.count;
  }
  std::uint64_t chunks = 0;
  for (const AdaptiveAssignment& installment : job.installments) {
    chunks += chunk_count(installment.range);
  }

  std::string reject;
  if (draining_.load()) {
    reject = "draining: the server is shutting down";
  } else if (pending_jobs_ >= config_.max_queue_jobs) {
    reject = "admission queue full (" + std::to_string(pending_jobs_) +
             " jobs pending)";
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++(reject.empty() ? stats_.jobs_submitted : stats_.jobs_rejected);
  }
  if (!reject.empty()) return error_line(reject);
  job.id = next_job_id_++;
  ++pending_jobs_;

  // The reply is queued before any row can be: rows go out only when the
  // loop serves a chunk, after this request is answered. For adaptive
  // jobs `chunks` counts the pilot's chunks only (the schedule grows as
  // estimates come in) while `runs` is the full budget.
  std::string out = "{\"type\":\"accepted\",\"ok\":true";
  out += ",\"job\":" + std::to_string(job.id);
  out += ",\"points\":" + std::to_string(job.points.size());
  out += ",\"chunks\":" + std::to_string(chunks);
  out += ",\"runs\":" + std::to_string(job.runs_total);
  if (job.adaptive) {
    out += ",\"adaptive\":true,\"pilot\":" +
           std::to_string(adaptive_config.pilot);
  }
  out += ",\"spec_hashes\":[" + hashes + "]}";
  session.jobs.push_back(std::move(job));
  return out;
}

Server::Pick Server::pick_next() {
  // Erase the sessions that ended: their jobs are dropped, so a drain never
  // waits on a vanished client, and ~Session closes the fd — which also
  // re-arms a listener paused for lack of descriptors.
  for (std::size_t i = 0; i < sessions_.size();) {
    if (!sessions_[i]->dead) {
      ++i;
      continue;
    }
    pending_jobs_ -= sessions_[i]->jobs.size();
    sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    if (i < rr_cursor_) --rr_cursor_;
    accepting_ = true;
  }
  Pick pick;
  const std::size_t n = sessions_.size();
  if (n == 0) return pick;
  if (rr_cursor_ >= n) rr_cursor_ = 0;
  // Deficit round robin: walk one rotation starting at the cursor. A
  // session freshly reached in the rotation (visited > 0) earns one
  // quantum; the cursor session spends what it has left, so a client's
  // credit drains in consecutive chunks before the rotation moves on. An
  // idle session, or one whose client is behind on reading, forfeits its
  // credit (classic DRR idle reset). The <= bound lets a lone busy session
  // re-earn at the wrap-around.
  for (std::size_t visited = 0; visited <= n; ++visited) {
    const std::size_t idx = (rr_cursor_ + visited) % n;
    Session& session = *sessions_[idx];
    if (session.jobs.empty() || session.backlogged()) {
      session.deficit = 0;
      continue;
    }
    pick.any_pending = true;
    if (visited != 0) session.deficit += config_.quantum_runs;
    const Job& job = session.jobs.front();
    if (session.deficit >=
        first_chunk(job.installments.front().range).count) {
      rr_cursor_ = idx;
      pick.session = &session;
      return pick;
    }
  }
  return pick;
}

void Server::serve_step(Session& session) {
  // A job with no installment left never reaches here: emit_chunk queues
  // an adaptive job's next round (or finishes the job) first.
  Job& job = session.jobs.front();
  const AdaptiveAssignment& front = job.installments.front();
  const Job::Point& point = job.points[front.point];
  const SeedRange chunk = first_chunk(front.range);
  if (const auto handed = job.fulfilled.find(Job::dedup_key(point, chunk));
      handed != job.fulfilled.end()) {
    // Cross-job dedup, consume side: another job already executed this
    // exact shard and handed it over — serve it without touching the
    // engine or the cache (the bytes may have been evicted since).
    ResultCache::Entry entry = std::move(handed->second);
    job.fulfilled.erase(handed);
    emit_chunk(session, chunk, std::move(entry), true);
    return;
  }
  if (auto hit = cache_.lookup({point.hash, chunk.first, chunk.count})) {
    emit_chunk(session, chunk, std::move(*hit), true);
    return;
  }
  // The front chunk misses. Gather the installment's next chunks while
  // each misses too, the session's credit covers the sweep's runs, and
  // the sweep stays within the engine's shard ceiling and kMaxSweepWork —
  // the chunks the per-chunk loop would execute next, one pick each.
  std::vector<SeedRange> chunks = {chunk};
  std::uint64_t runs = chunk.count;
  const std::uint64_t max_runs =
      kMaxSweepWork / std::max<std::uint64_t>(point.run_work, 1);
  SeedRange rest = SeedRange::of(front.range.first + chunk.count,
                                 front.range.count - chunk.count);
  while (rest.count > 0 && chunks.size() < kMaxChunksPerBatch) {
    const SeedRange next = first_chunk(rest);
    if (runs + next.count > std::min(session.deficit, max_runs) ||
        job.fulfilled.contains(Job::dedup_key(point, next)) ||
        !cache_.misses({point.hash, next.first, next.count})) {
      break;
    }
    chunks.push_back(next);
    runs += next.count;
    rest = SeedRange::of(rest.first + next.count, rest.count - next.count);
  }
  std::vector<RunStats> chunk_stats;
  std::vector<std::string> payloads =
      run_chunks(engine_, point.spec, chunks, &chunk_stats);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.engine_sweeps;
  }
  // Answer what arrived while the sweep ran before its rows go out, so a
  // request waits for at most one sweep and a submit meets the queue as
  // it stood when the sweep began.
  poll_sockets(0);
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    emit_chunk(session, chunks[k],
               ResultCache::Entry{std::move(payloads[k]),
                                  std::move(chunk_stats[k])},
               false);
  }
}

void Server::emit_chunk(Session& session, SeedRange chunk,
                        ResultCache::Entry entry, bool cached) {
  Job& job = session.jobs.front();
  AdaptiveAssignment& front = job.installments.front();
  const std::size_t point_index = front.point;
  front.range = SeedRange::of(front.range.first + chunk.count,
                              front.range.count - chunk.count);
  if (front.range.count == 0) job.installments.erase(job.installments.begin());
  const std::uint64_t row_index = job.rows_emitted++;
  const Job::Point& point = job.points[point_index];
  if (!cached) {
    cache_.insert({point.hash, chunk.first, chunk.count}, entry);
    // Cross-job dedup, fill side: hand the freshly executed shard to every
    // other queued job that will still cut the same (spec hash, chunk) off
    // one of its installments. Only unclaimed chunks qualify — a claimed
    // one is already cut off. Rows are pure functions of (spec, chunk), so
    // the handover is byte-identical to executing.
    for (const auto& other_session : sessions_) {
      for (Job& other : other_session->jobs) {
        if (&other == &job) continue;
        for (const AdaptiveAssignment& queued : other.installments) {
          if (other.points[queued.point].hash == point.hash &&
              is_chunk_of(chunk, queued.range)) {
            other.fulfilled.emplace(Job::dedup_key(point, chunk), entry);
          }
        }
      }
    }
  }

  std::string line = "{\"type\":\"row\",\"job\":" + std::to_string(job.id);
  line += ",\"point\":" + std::to_string(point_index);
  line += ",\"label\":" + quoted(point.label);
  line += ",\"chunk\":" + std::to_string(row_index);
  line += ",\"cached\":";
  line += cached ? "true" : "false";
  line += ",\"row\":" + entry.payload + "}";
  session.send_line(line);

  job.summary.merge(entry.stats);
  if (job.adaptive) {
    job.adaptive->record(point_index, entry.stats);
    if (job.installments.empty()) job.installments = job.adaptive->next_round();
  }
  if (cached) {
    job.runs_cached += chunk.count;
  } else {
    job.runs_executed += chunk.count;
    session.deficit -= std::min(session.deficit, chunk.count);
  }
  const bool finished = job.finished();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (cached) {
      stats_.runs_cached += chunk.count;
    } else {
      stats_.runs_executed += chunk.count;
    }
    if (finished) ++stats_.jobs_completed;
  }
  if (!finished) return;

  std::string done = "{\"type\":\"done\",\"job\":" + std::to_string(job.id);
  done += ",\"chunks\":" + std::to_string(job.rows_emitted);
  done += ",\"runs\":" + std::to_string(job.runs_total);
  done += ",\"runs_executed\":" + std::to_string(job.runs_executed);
  done += ",\"runs_cached\":" + std::to_string(job.runs_cached);
  // ignored; the benchmark PR (ROADMAP item 2) deletes it
  done += ",\"runs_deduped\":0";
  // An adaptive summary spans the runs the budget bought, not the full
  // declared range (points stop at different seeds; `seeds` reports the
  // aggregate run count with the shared first seed).
  const SeedRange summary_seeds =
      job.adaptive ? SeedRange::of(job.request_seeds.first, job.summary.runs)
                   : job.request_seeds;
  done += ",\"summary\":" + row_payload(summary_seeds, job.summary);
  done += "}";
  session.send_line(done);
  session.jobs.pop_front();
  --pending_jobs_;
}

ServerStats Server::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  out.cache = cache_.stats();
  return out;
}

}  // namespace rsb::service
