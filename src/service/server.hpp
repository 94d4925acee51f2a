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
//    are never queued behind cold work. The uncached chunks a client's
//    credit covers run as one engine sweep (see Threading);
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
// flushes outboxes the sockets can take, and takes one serving step for
// the session DRR picks. A step serves the front chunk of that session's
// front job from a handover or the cache; when it misses, the step also
// gathers the chunks that follow it in the same (point, seed range)
// installment while each misses too and the session's credit covers
// them, runs them all in one engine sweep (rows.hpp run_chunks: one
// worker-pool spawn instead of one per chunk), answers the requests that
// arrived meanwhile, and then emits the chunks' rows, cache inserts,
// handovers and credit charges in chunk order, exactly as one step per
// chunk would. A sweep of two or more chunks holds at most
// kMaxChunksPerBatch chunks and at most one admission-bound chunk's
// estimated work (kChunkRuns × kMaxRunWork, runs × rounds × parties,
// times parties − 1 for message passing). Sockets are non-blocking and
// every reply and row goes through the session's outbox, so no client can
// block the loop; a session whose outbox holds more than 1 MiB is neither
// served nor read until its client reads (a step's rows may take it past
// the bound by one sweep's rows). A request waits for the sweep in
// progress: at the default quantum, 16 chunks of 256 runs — a few ms for
// the paper's leader-election specs, longer for long-round ones. When
// accept() runs out of descriptors the loop stops polling the listener
// until a session ends and frees one; a client past kMaxSessions reads
// one error line and is closed. Only stats(), begin_drain() and stop()
// are called from other threads.
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

#include <poll.h>

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
  /// Engine worker threads per sweep of a step's gathered chunks
  /// (ParallelConfig; 0 = hardware).
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
  /// Engine sweeps the loop ran: one per serving step that executed, each
  /// covering one or more uncached chunks (not Job installments, which are
  /// a job's queued (point, seed range) pairs).
  std::uint64_t engine_sweeps = 0;
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

  /// Polls the listener and every session socket for up to `timeout_ms`,
  /// accepts pending clients, answers every complete request line, and
  /// flushes what the sockets take. Returns poll()'s result.
  int poll_sockets(int timeout_ms);

  /// Accepts every pending client and reads what each already sent.
  void accept_clients();

  /// Reads what `session` sent and answers every complete request line; an
  /// EOF or a read error marks the session dead.
  void read_requests(Session& session);

  /// Handles one request line and returns the reply line.
  std::string handle_request(Session& session, const std::string& line);
  std::string handle_submit(Session& session, const std::string& spec_text);

  /// Erases dead sessions (dropping their jobs, closing their fds), then
  /// picks the session whose next step DRR serves; null when none is due.
  struct Pick {
    Session* session = nullptr;
    bool any_pending = false;  // some live session has a servable chunk
  };
  Pick pick_next();

  /// One serving step for `session`'s front job: its front chunk from a
  /// handover or the cache, or — on a miss — that chunk and the following
  /// misses of the same installment its credit covers, in one engine
  /// sweep (see the file header). Emits each chunk through emit_chunk.
  void serve_step(Session& session);

  /// Emits `chunk`, the front chunk of `session`'s front job, served
  /// with `entry`: cuts it off the installment, caches and hands over an
  /// executed (`cached` false) chunk, sends the row, merges the summary,
  /// charges the credit, counts the stats, and sends the done line when
  /// the job completes.
  void emit_chunk(Session& session, SeedRange chunk, ResultCache::Entry entry,
                  bool cached);

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
  std::vector<pollfd> polled_;  // poll_sockets' scratch
  std::size_t rr_cursor_ = 0;  // DRR rotation over sessions_
  std::size_t pending_jobs_ = 0;
  std::uint64_t next_job_id_ = 1;
  bool accepting_ = true;  // false after EMFILE/ENFILE until a session ends

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::thread loop_thread_;  // last: it uses every member above
};

}  // namespace rsb::service
