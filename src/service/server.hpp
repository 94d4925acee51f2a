// rsbd server core: a TCP line-protocol experiment service over Engine.
//
// The daemon listens on a loopback TCP port and speaks newline-delimited
// JSON (src/service/json.hpp). A client submits an experiment spec in the
// canonical text form (src/service/canonical.hpp, optionally a grid
// request with `|` alternatives); the server expands it, keeps one seed
// range per point, cuts absolute-aligned chunks off the front of each
// range as it serves them (src/service/rows.hpp), and streams one row back
// per chunk as it completes, in point-then-chunk (= run-index) order,
// followed by a `done` summary merged through RunStats::merge. A job's
// memory follows its points, not its chunks. Requests:
//
//   {"op":"submit","spec":"loads=2,3\nprotocol=wait-for-singleton-LE\n..."}
//   {"op":"ping"}        {"op":"stats"}        {"op":"shutdown"}
//
// Responses (one JSON object per line):
//
//   {"type":"accepted","ok":true,"job":1,"points":1,"chunks":4,
//    "spec_hashes":["97a0..."]}
//   {"type":"row","job":1,"point":0,"label":"","chunk":0,"cached":false,
//    "row":{...}}                      (row payload: rows.hpp)
//   {"type":"done","job":1,"chunks":4,"runs":1000,"runs_executed":1000,
//    "runs_cached":0,"runs_deduped":0,"summary":{...}}
//   {"type":"error","ok":false,"reason":"..."}
//
// Five server-side policies:
//
//  * admission control — at most `max_queue_jobs` jobs may be pending at
//    once; a submit past the bound is rejected immediately with a reason
//    (never silently queued), as is any submit while draining;
//  * fair scheduling — the server deals *chunks* (not whole jobs) onto the
//    engine's work-stealing pool via deficit round robin across clients:
//    each visit grants a client `quantum_runs` of credit, a chunk costs
//    its run count, cache hits cost nothing — so a client streaming a huge
//    sweep cannot starve a client running a small one, and cached replays
//    are never queued behind cold work;
//  * result cache — every executed chunk lands in an LRU ResultCache
//    (src/service/cache.hpp) keyed by (spec hash, chunk range); repeated
//    or overlapping queries stream the covered chunks back without
//    executing a single run;
//  * cross-job dedup — when an executed chunk is one another queued job
//    with the same spec hash will still cut from its remaining seed
//    ranges, the server hands the completed shard to that job at
//    completion time, so concurrent queries over one ensemble execute
//    each chunk once — even when the LRU cache is too small to retain the
//    bytes until the second job's turn comes around;
//  * adaptive sweeps — a spec carrying `adaptive-budget=B` (and optionally
//    `pilot=P`; both hash-inert, see canonical.hpp) follows the schedule
//    run_grid_adaptive follows (engine/grid.hpp AdaptiveSchedule): P pilot
//    runs per point, then allocation rounds proportional to each point's
//    Wilson CI half-width, each round queued once the last one's chunks
//    have merged. Every installment starts at the point's next unexecuted
//    seed, so the chunks stay seed-range-aligned and byte-identical to a
//    uniform sweep's prefix — adaptive and uniform requests over one
//    ensemble share cache entries.
//
// Threading: one loop thread runs the whole server. Each iteration polls
// the listener and every session socket, accepts pending clients (reading
// whatever they already sent), answers every complete request line,
// flushes outboxes the sockets can take, and serves one chunk. Sockets are
// non-blocking and every reply and row goes through the session's outbox,
// so no client can block the loop; a session whose outbox holds more than
// 1 MiB is neither served nor read until its client reads. A request
// waits for the chunk in progress (256 runs: a few ms for the paper's
// leader-election specs, longer for long-round ones). When accept() runs
// out of descriptors the loop stops polling the listener until a session
// ends and frees one; a client past kMaxSessions reads one error line and
// is closed. Only stats(), begin_drain() and stop() are called from other
// threads.
//
// Determinism: a row's bytes are a pure function of (spec, chunk) — the
// engine is deterministic for any thread count, cached bytes are the
// executed bytes, and scheduling order never reaches row content — so
// rows served cold, cached, or under concurrent clients are byte-identical
// to rows.hpp reference_rows() in-process (pinned by tests/service_test
// and the CI service-smoke job).
//
// Shutdown: begin_drain() rejects new submits while queued jobs finish;
// stop() drains, flushes every live outbox, then joins the loop thread
// (rsbd calls it on SIGTERM; the `shutdown` op sets shutdown_requested()
// for rsbd's main loop to observe).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "service/cache.hpp"

namespace rsb::service {

/// The most client sessions rsbd serves at once. A connection past the
/// bound reads one error line naming it and is closed; the daemon keeps
/// serving the sessions it holds. 256 sessions hold 256 descriptors, well
/// under the usual default limit of 1,024 (RLIMIT_NOFILE).
inline constexpr std::size_t kMaxSessions = 256;

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see Server::port).
  int port = 0;
  /// Engine worker threads per chunk sweep (ParallelConfig; 0 = hardware).
  int threads = 0;
  int batch = 16;     // ignored; the benchmark PR (ROADMAP item 2) deletes it
  bool orbit = true;  // ignored; the benchmark PR (ROADMAP item 2) deletes it
  /// Admission bound: pending (queued + running) jobs across all clients.
  std::size_t max_queue_jobs = 64;
  /// Result-cache byte budget.
  std::uint64_t cache_bytes = 64ull << 20;
  /// Deficit-round-robin credit granted per client visit, in runs.
  std::uint64_t quantum_runs = 4096;
  /// Hard bound on grid expansion per request.
  std::size_t max_points = 1024;
};

struct ServerStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t runs_executed = 0;  // runs actually swept by the engine
  std::uint64_t runs_cached = 0;    // runs served from the result cache
  bool draining = false;
  ResultCache::Stats cache;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:config.port and starts the loop thread. Throws
  /// InvalidArgument, naming the field, for quantum_runs = 0 or a port
  /// outside [0, 65535], and Error when the socket cannot be bound.
  void start();

  /// The bound port (after start(); the ephemeral one when config.port=0).
  int port() const noexcept { return port_; }

  /// Stops admitting new jobs; queued jobs keep streaming.
  void begin_drain();

  /// True once a client issued the `shutdown` op (the daemon's cue to
  /// call stop()).
  bool shutdown_requested() const noexcept {
    return shutdown_requested_.load();
  }

  /// Drains the queue, flushes every live outbox, joins the loop thread,
  /// then closes the listener and every session. Idempotent; safe to call
  /// without start().
  void stop();

  ServerStats stats() const;

 private:
  struct Session;
  struct Job;

  void loop();

  /// Accepts every pending client and reads what each already sent.
  void accept_clients();

  /// Reads what `session` sent and answers every complete request line; an
  /// EOF or a read error marks the session dead.
  void read_requests(Session& session);

  /// Handles one request line and returns the reply line.
  std::string handle_request(Session& session, const std::string& line);
  std::string handle_submit(Session& session, const std::string& spec_text);

  /// Erases dead sessions (dropping their jobs, closing their fds), then
  /// picks the session whose next chunk DRR serves; null when none is due.
  struct Pick {
    Session* session = nullptr;
    bool any_pending = false;  // some live session has a servable chunk
  };
  Pick pick_next();

  /// Serves the next chunk of `session`'s front job: cache, handover or
  /// engine, then its row, and the done line when the job completes.
  void serve_chunk(Session& session);

  ServerConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};

  Engine engine_;
  ResultCache cache_;

  // Loop-thread state.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t rr_cursor_ = 0;  // DRR rotation over sessions_
  std::size_t pending_jobs_ = 0;
  std::uint64_t next_job_id_ = 1;
  bool accepting_ = true;  // false after EMFILE/ENFILE until a session ends

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::thread loop_thread_;  // last: it uses every member above
};

}  // namespace rsb::service
