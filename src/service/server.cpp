#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <tuple>

#include "engine/grid.hpp"
#include "service/canonical.hpp"
#include "service/json.hpp"
#include "service/rows.hpp"
#include "util/error.hpp"

namespace rsb::service {

namespace {

constexpr std::size_t kMaxLineBytes = 1 << 20;
constexpr int kPollMillis = 200;

std::string quoted(const std::string& s) {
  std::string out;
  json::append_quoted(out, s);
  return out;
}

std::string error_line(const std::string& reason) {
  return "{\"type\":\"error\",\"ok\":false,\"reason\":" + quoted(reason) + "}";
}

}  // namespace

// ---------------------------------------------------------------- session

/// One connected client. The session thread reads and replies to request
/// lines; the scheduler thread streams rows through send_line. The write
/// mutex serializes the two; `dead` flips once (EOF, write failure, or
/// server stop) and is never unset. `finished` flips as the session
/// thread's last act, after which the accept path may reap the session.
struct Server::Session {
  int fd = -1;
  std::uint64_t id = 0;
  std::atomic<bool> dead{false};
  std::atomic<bool> finished{false};

  std::mutex write_mutex;

  // Guarded by Server::sched_mutex_:
  std::deque<std::shared_ptr<Job>> jobs;
  std::uint64_t deficit = 0;  // DRR credit, in runs

  ~Session() {
    if (fd >= 0) ::close(fd);
  }

  /// Writes `line` + '\n'; marks the session dead on failure.
  bool send_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (dead.load()) return false;
    std::string framed = line;
    framed += '\n';
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        dead.store(true);
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
};

/// One admitted submit: the expanded points and a flat chunk plan — one
/// (point index, seed range) entry per row the job will stream, in
/// point-then-chunk order. Uniform jobs materialize the whole plan at
/// submit; adaptive jobs start with the pilot entries and the scheduler
/// appends allocation rounds as estimates come in (extend_adaptive_plan).
/// Progress cursors are guarded by sched_mutex_ and advanced only by the
/// scheduler thread.
struct Server::Job {
  struct Point {
    std::string label;
    std::uint64_t hash = 0;
    Experiment spec;
    /// Orbit dedup for this point's chunks, resolved at submit: the
    /// spec's `orbit=` override when present, the server default
    /// otherwise. Hash-inert — points differing only here share `hash`.
    bool orbit = true;
  };
  struct PlanEntry {
    std::size_t point = 0;
    SeedRange chunk;
  };

  std::uint64_t id = 0;
  std::shared_ptr<Session> session;
  std::vector<Point> points;
  std::vector<PlanEntry> plan;
  SeedRange request_seeds;  // shared by every point (seeds is not an axis)

  /// Chunks another job's execution already produced (cross-job dedup),
  /// keyed by (spec hash, first seed, run count); the claim path consumes
  /// and erases a matching entry instead of executing or consulting the
  /// cache. Guarded by sched_mutex_; filled only for *unclaimed* chunks,
  /// so a handed-over shard is always eventually claimed and the map
  /// drains by the time the job finishes.
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           ResultCache::Entry>
      fulfilled;

  std::size_t next_entry = 0;
  std::size_t rows_emitted = 0;
  std::uint64_t total_chunks = 0;
  std::uint64_t runs_total = 0;
  std::uint64_t runs_executed = 0;
  std::uint64_t runs_cached = 0;
  std::uint64_t runs_deduped = 0;  // orbit memo hits inside executed chunks
  RunStats summary;

  // Adaptive sweeps (`adaptive-budget=` on the spec): the shared budget,
  // pilot, per-point success estimates folded from each chunk's stats,
  // per-point runs planned so far, and the allocation round counter. All
  // guarded by sched_mutex_.
  bool adaptive = false;
  std::uint64_t adaptive_budget = 0;
  std::uint64_t pilot = 0;
  std::uint64_t runs_planned = 0;
  int adaptive_round = 0;
  std::vector<SuccessEstimate> estimates;
  std::vector<std::uint64_t> point_runs;

  bool finished() const noexcept { return next_entry == plan.size(); }
};

Server::Server(ServerConfig config)
    : config_(config), cache_(config.cache_bytes) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  engine_.set_parallel({config_.threads, 0, config_.batch, config_.orbit});

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
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

  accept_thread_ = std::thread([this] { accept_loop(); });
  scheduler_thread_ = std::thread([this] { scheduler_loop(); });
}

void Server::begin_drain() {
  draining_.store(true);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.draining = true;
}

void Server::stop() {
  if (!running_.load()) return;
  begin_drain();
  {
    // Wait for every admitted job to finish streaming (graceful drain).
    std::unique_lock<std::mutex> lock(sched_mutex_);
    drain_cv_.wait(lock, [this] { return pending_jobs_ == 0; });
  }
  running_.store(false);
  work_cv_.notify_all();
  // Wake the accept thread's poll, and close the listener only after that
  // thread has exited: it reads listen_fd_ until then.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  std::vector<std::thread> session_threads;
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    for (const auto& session : sessions_) session->dead.store(true);
    session_threads.swap(session_threads_);
  }
  for (std::thread& thread : session_threads) {
    if (thread.joinable()) thread.join();
  }
  std::lock_guard<std::mutex> lock(sched_mutex_);
  sessions_.clear();
}

void Server::accept_loop() {
  std::uint64_t next_session_id = 1;
  while (running_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (!running_.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->id = next_session_id++;
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(sched_mutex_);
      reap_sessions(finished);
      sessions_.push_back(session);
      session_threads_.emplace_back(
          [this, session] { session_loop(session); });
    }
    for (std::thread& thread : finished) thread.join();
  }
}

void Server::reap_sessions(std::vector<std::thread>& finished) {
  for (std::size_t i = 0; i < sessions_.size();) {
    // A finished session reads no more requests, and an empty queue means
    // the scheduler holds none of its jobs either (a running job stays at
    // the queue's front until it completes) — nothing can reach it again.
    const Session& session = *sessions_[i];
    if (!session.finished.load() || !session.jobs.empty()) {
      ++i;
      continue;
    }
    finished.push_back(std::move(session_threads_[i]));
    session_threads_.erase(session_threads_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    // Dropping the last owner closes the fd (~Session).
    sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    if (i < rr_cursor_) --rr_cursor_;
  }
  if (rr_cursor_ >= sessions_.size()) rr_cursor_ = 0;
}

void Server::session_loop(std::shared_ptr<Session> session) {
  std::string buffer;
  char scratch[4096];
  while (running_.load() && !session->dead.load()) {
    pollfd pfd{session->fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (!running_.load() || session->dead.load()) break;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(session->fd, scratch, sizeof(scratch), 0);
    if (n <= 0) break;  // EOF or error: the client hung up
    buffer.append(scratch, static_cast<std::size_t>(n));
    if (buffer.size() > kMaxLineBytes) {
      session->send_line(error_line("request line exceeds 1 MiB"));
      break;
    }
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string reply = handle_request(session, line);
      if (!reply.empty() && !session->send_line(reply)) break;
    }
    buffer.erase(0, start);
  }
  session->dead.store(true);
  // Orphaned queued jobs are dropped by the scheduler's next pick; wake it
  // so a drain waiting on them observes the disconnect promptly.
  work_cv_.notify_all();
  session->finished.store(true);
}

std::string Server::handle_request(const std::shared_ptr<Session>& session,
                                   const std::string& line) {
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
      out += ",\"runs_deduped\":" + std::to_string(s.runs_deduped);
      out += ",\"orbit_hits\":" + std::to_string(s.orbit_hits);
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
  } catch (const Error& e) {
    return error_line(e.what());
  }
}

void Server::append_point_plan(Job& job, std::size_t point, SeedRange range) {
  for (const SeedRange& chunk : chunk_plan(range)) {
    job.plan.push_back(Job::PlanEntry{point, chunk});
  }
  job.total_chunks = job.plan.size();
  job.runs_planned += range.count;
  if (point < job.point_runs.size()) job.point_runs[point] += range.count;
}

void Server::extend_adaptive_plan(Job& job) {
  // Round budgets follow run_grid_adaptive exactly: the remaining budget
  // split evenly over the remaining rounds, the last round absorbing the
  // integer remainder. Every range starts at the point's next unexecuted
  // seed, so extension chunks are the same absolute-aligned shards a
  // uniform sweep over the point would produce.
  const AdaptiveConfig defaults{};
  while (job.next_entry == job.plan.size() &&
         job.adaptive_round < defaults.rounds &&
         job.runs_planned < job.adaptive_budget) {
    const std::uint64_t left = job.adaptive_budget - job.runs_planned;
    const std::uint64_t round_budget =
        left / static_cast<std::uint64_t>(defaults.rounds - job.adaptive_round);
    ++job.adaptive_round;
    if (round_budget == 0) continue;
    std::vector<std::uint64_t> capacity(job.points.size());
    for (std::size_t p = 0; p < job.points.size(); ++p) {
      capacity[p] = job.request_seeds.count - job.point_runs[p];
    }
    const std::vector<std::uint64_t> alloc =
        allocate_adaptive_runs(job.estimates, capacity, round_budget,
                               defaults.z, defaults.target_half_width);
    std::uint64_t allocated = 0;
    for (std::size_t p = 0; p < job.points.size(); ++p) {
      if (alloc[p] == 0) continue;
      append_point_plan(
          job, p,
          SeedRange::of(job.request_seeds.first + job.point_runs[p], alloc[p]));
      allocated += alloc[p];
    }
    if (allocated == 0) return;  // every eligible point is capped
  }
}

std::string Server::handle_submit(const std::shared_ptr<Session>& session,
                                  const std::string& spec_text) {
  // Expansion and validation happen before admission: a malformed spec is
  // an error reply, never a queued job.
  auto job = std::make_shared<Job>();
  std::string hashes;
  for (SpecPoint& point : expand_request(spec_text, config_.max_points)) {
    if (job->points.empty()) {
      job->adaptive = point.spec.adaptive_budget != 0;
      job->adaptive_budget = point.spec.adaptive_budget;
      job->pilot = point.spec.pilot;
    } else if (point.spec.adaptive_budget != job->adaptive_budget ||
               point.spec.pilot != job->pilot) {
      throw InvalidArgument(
          "spec: adaptive-budget/pilot cannot be grid axes — one budget is "
          "shared by every point of the request");
    }
    Job::Point expanded;
    expanded.label = std::move(point.label);
    expanded.hash = point.spec.hash();
    expanded.spec = point.spec.to_experiment();
    expanded.orbit =
        point.spec.orbit.empty() ? config_.orbit : point.spec.orbit == "on";
    job->request_seeds = point.spec.seeds;
    if (!hashes.empty()) hashes += ',';
    hashes += quoted(point.spec.hash_hex());
    job->points.push_back(std::move(expanded));
  }
  job->session = session;

  if (job->adaptive) {
    const AdaptiveConfig defaults{};
    if (job->pilot == 0) job->pilot = defaults.pilot;
    const std::uint64_t n_points = job->points.size();
    if (job->pilot > job->request_seeds.count) {
      throw InvalidArgument("spec: pilot=" + std::to_string(job->pilot) +
                            " exceeds the per-point seed count " +
                            std::to_string(job->request_seeds.count));
    }
    if (job->adaptive_budget < n_points * job->pilot) {
      throw InvalidArgument(
          "spec: adaptive-budget=" + std::to_string(job->adaptive_budget) +
          " cannot cover the pilot (" + std::to_string(n_points) +
          " points x pilot=" + std::to_string(job->pilot) + " = " +
          std::to_string(n_points * job->pilot) + " runs)");
    }
    if (job->adaptive_budget > n_points * job->request_seeds.count) {
      throw InvalidArgument(
          "spec: adaptive-budget=" + std::to_string(job->adaptive_budget) +
          " exceeds the request's seed capacity (" + std::to_string(n_points) +
          " points x seeds=" + std::to_string(job->request_seeds.count) +
          " = " + std::to_string(n_points * job->request_seeds.count) +
          " runs)");
    }
    job->estimates.resize(job->points.size());
    job->point_runs.assign(job->points.size(), 0);
    for (std::size_t p = 0; p < job->points.size(); ++p) {
      append_point_plan(*job, p,
                        SeedRange::of(job->request_seeds.first, job->pilot));
    }
    job->runs_total = job->adaptive_budget;
  } else {
    for (std::size_t p = 0; p < job->points.size(); ++p) {
      append_point_plan(*job, p, job->request_seeds);
    }
    job->runs_total = job->runs_planned;
  }

  {
    // Admit (or reject) and reserve the queue slot, but do NOT make the
    // job visible to the scheduler yet — the accepted reply must hit the
    // socket before any row can (a cached chunk is served instantly).
    std::lock_guard<std::mutex> lock(sched_mutex_);
    if (draining_.load()) {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.jobs_rejected;
      return error_line("draining: the server is shutting down");
    }
    if (pending_jobs_ >= config_.max_queue_jobs) {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.jobs_rejected;
      return error_line("admission queue full (" +
                        std::to_string(pending_jobs_) + " jobs pending)");
    }
    job->id = next_job_id_++;
    ++pending_jobs_;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs_submitted;
  }

  // For adaptive jobs `chunks` counts the pilot plan only (the schedule
  // grows as estimates come in) while `runs` is the full budget.
  std::string out = "{\"type\":\"accepted\",\"ok\":true";
  out += ",\"job\":" + std::to_string(job->id);
  out += ",\"points\":" + std::to_string(job->points.size());
  out += ",\"chunks\":" + std::to_string(job->total_chunks);
  out += ",\"runs\":" + std::to_string(job->runs_total);
  if (job->adaptive) {
    out += ",\"adaptive\":true,\"pilot\":" + std::to_string(job->pilot);
  }
  out += ",\"spec_hashes\":[" + hashes + "]}";
  if (!session->send_line(out)) {
    // Client vanished between request and reply: release the reservation.
    std::lock_guard<std::mutex> lock(sched_mutex_);
    --pending_jobs_;
    drain_cv_.notify_all();
    return std::string();
  }
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    session->jobs.push_back(job);
  }
  work_cv_.notify_all();
  return std::string();
}

Server::Pick Server::pick_next() {
  Pick pick;
  if (sessions_.empty()) return pick;
  const std::size_t n = sessions_.size();
  // Deficit round robin: walk one rotation starting at the cursor. A
  // session freshly reached in the rotation (visited > 0) earns one
  // quantum; the cursor session spends what it has left, so a client's
  // credit drains in consecutive chunks before the rotation moves on. An
  // idle or dead session forfeits its credit (classic DRR idle reset).
  // The <= bound lets a lone busy session re-earn at the wrap-around.
  for (std::size_t visited = 0; visited <= n; ++visited) {
    const std::size_t idx = (rr_cursor_ + visited) % n;
    Session& session = *sessions_[idx];
    if (session.dead.load()) {
      // Drop orphaned jobs so drains do not wait on a vanished client.
      while (!session.jobs.empty()) {
        session.jobs.pop_front();
        --pending_jobs_;
      }
      session.deficit = 0;
      drain_cv_.notify_all();
      continue;
    }
    if (session.jobs.empty()) {
      session.deficit = 0;
      continue;
    }
    pick.any_pending = true;
    if (visited != 0) session.deficit += config_.quantum_runs;
    const Job& job = *session.jobs.front();
    const std::uint64_t cost = job.plan[job.next_entry].chunk.count;
    if (session.deficit >= cost) {
      rr_cursor_ = idx;
      pick.job = session.jobs.front();
      return pick;
    }
  }
  return pick;
}

void Server::scheduler_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    std::size_t point_index = 0;
    std::size_t row_index = 0;
    SeedRange chunk;
    std::optional<ResultCache::Entry> prefilled;
    {
      std::unique_lock<std::mutex> lock(sched_mutex_);
      while (true) {
        if (!running_.load() && pending_jobs_ == 0) return;
        const Pick pick = pick_next();
        if (pick.job != nullptr) {
          job = pick.job;
          break;
        }
        if (pick.any_pending) continue;  // deficits grow per rotation
        work_cv_.wait_for(lock, std::chrono::milliseconds(kPollMillis));
      }
      // Claim the plan entry and advance the cursor while still locked;
      // only this thread executes, so the claim cannot race. An adaptive
      // job whose plan is momentarily exhausted never appears here: the
      // post-merge section below extends the plan (or finishes the job)
      // before the scheduler returns to pick_next.
      point_index = job->plan[job->next_entry].point;
      chunk = job->plan[job->next_entry].chunk;
      ++job->next_entry;
      row_index = job->rows_emitted++;
      // Cross-job dedup, consume side: another job already executed this
      // exact shard and handed it over — serve it without touching the
      // engine or the cache (the bytes may have been evicted since).
      const auto handed = job->fulfilled.find(std::make_tuple(
          job->points[point_index].hash, chunk.first, chunk.count));
      if (handed != job->fulfilled.end()) {
        prefilled = std::move(handed->second);
        job->fulfilled.erase(handed);
      }
    }

    Job::Point& point = job->points[point_index];
    const ResultCache::Key key{point.hash, chunk.first, chunk.count};
    RunStats stats;
    std::string payload;
    bool cached = false;
    std::uint64_t deduped = 0;
    if (prefilled.has_value()) {
      payload = std::move(prefilled->payload);
      stats = std::move(prefilled->stats);
      cached = true;
    } else if (auto hit = cache_.lookup(key)) {
      payload = std::move(hit->payload);
      stats = std::move(hit->stats);
      cached = true;
    } else {
      // Only the scheduler thread touches the engine, so the knob flip
      // and the hit-counter delta below cannot race a sweep; stats() must
      // read the accumulated ServerStats counters, never the engine.
      if (engine_.parallel().orbit != point.orbit) {
        ParallelConfig parallel = engine_.parallel();
        parallel.orbit = point.orbit;
        engine_.set_parallel(parallel);
      }
      const std::uint64_t hits_before = engine_.orbit_hits();
      payload = run_chunk(engine_, point.spec, chunk, &stats);
      deduped = engine_.orbit_hits() - hits_before;
      cache_.insert(key, ResultCache::Entry{payload, stats});
    }

    std::string line = "{\"type\":\"row\",\"job\":" + std::to_string(job->id);
    line += ",\"point\":" + std::to_string(point_index);
    line += ",\"label\":" + quoted(point.label);
    line += ",\"chunk\":" + std::to_string(row_index);
    line += ",\"cached\":";
    line += cached ? "true" : "false";
    line += ",\"row\":" + payload + "}";
    job->session->send_line(line);

    bool finished = false;
    {
      std::lock_guard<std::mutex> lock(sched_mutex_);
      if (!cached) {
        // Cross-job dedup, fill side: hand the freshly executed shard to
        // every other queued job still waiting on the same (spec hash,
        // chunk). Only unclaimed chunks qualify — a claimed one is already
        // past the consume check above. Rows are pure functions of
        // (spec, chunk), so the handover is byte-identical to executing.
        const auto dedup_key =
            std::make_tuple(point.hash, chunk.first, chunk.count);
        for (const auto& other_session : sessions_) {
          for (const auto& other : other_session->jobs) {
            if (other == job) continue;
            for (std::size_t e = other->next_entry; e < other->plan.size();
                 ++e) {
              const Job::PlanEntry& entry = other->plan[e];
              if (other->points[entry.point].hash == point.hash &&
                  entry.chunk.first == chunk.first &&
                  entry.chunk.count == chunk.count) {
                other->fulfilled.emplace(dedup_key,
                                         ResultCache::Entry{payload, stats});
              }
            }
          }
        }
      }
      job->summary.merge(stats);
      if (job->adaptive) {
        // Fold the chunk into the point's success estimate (successes =
        // task admissions when a task is checked, bare terminations
        // otherwise — the same reading SuccessEstimate::observe applies),
        // then grow the plan once the last planned chunk has merged.
        job->estimates[point_index].add(
            stats.runs,
            stats.task_checked ? stats.task_successes : stats.terminated);
        if (job->next_entry == job->plan.size()) extend_adaptive_plan(*job);
      }
      if (cached) {
        job->runs_cached += chunk.count;
      } else {
        job->runs_executed += chunk.count;
        job->runs_deduped += deduped;
        Session& session = *job->session;
        session.deficit -= std::min(session.deficit, chunk.count);
      }
      if (job->finished()) {
        finished = true;
        Session& session = *job->session;
        if (!session.jobs.empty() && session.jobs.front() == job) {
          session.jobs.pop_front();
        }
        --pending_jobs_;
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (cached) {
        stats_.runs_cached += chunk.count;
      } else {
        stats_.runs_executed += chunk.count;
        stats_.runs_deduped += deduped;
        stats_.orbit_hits += deduped;
      }
      if (finished) ++stats_.jobs_completed;
    }
    if (finished) {
      std::string done = "{\"type\":\"done\",\"job\":" + std::to_string(job->id);
      done += ",\"chunks\":" + std::to_string(job->total_chunks);
      done += ",\"runs\":" + std::to_string(job->runs_total);
      done += ",\"runs_executed\":" + std::to_string(job->runs_executed);
      done += ",\"runs_cached\":" + std::to_string(job->runs_cached);
      done += ",\"runs_deduped\":" + std::to_string(job->runs_deduped);
      // An adaptive summary spans the runs the budget bought, not the full
      // declared range (points stop at different seeds; `seeds` reports
      // the aggregate run count with the shared first seed).
      const SeedRange summary_seeds =
          job->adaptive ? SeedRange::of(job->request_seeds.first,
                                        job->summary.runs)
                        : job->request_seeds;
      done += ",\"summary\":" + row_payload(summary_seeds, job->summary);
      done += "}";
      job->session->send_line(done);
      drain_cv_.notify_all();
    }
  }
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
