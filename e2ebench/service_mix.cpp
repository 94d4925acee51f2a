// The service workload, service-mix.
//
// An in-process service::Server with ServerConfig{} defaults listens on an
// ephemeral loopback port. Two closed-loop client threads each open a fresh
// service::Client per job, as rsbctl does, and cycle through three jobs
// over all-private n=6 leader election:
//   cold     a fresh 16384-run range: 64 aligned chunks, none cached;
//   warm     the identical query: every chunk comes from the result cache;
//   overlap  the range shifted by half plus 77 seeds: half of it is
//            cached, and both edges fall off the 256-run chunk grid.
// Cycles alternate the two leader-election protocols, which orbit dedup
// serves through its literal and its full-group path. The clients' seed
// ranges are disjoint, so whether a job is cold or warm never depends on
// timing.
//
// The traced run wraps every Client call and every reply parse in spans,
// reads the stats op, then replays every served chunk through the
// service's public calls (expand_request, to_experiment, ResultCache,
// run_chunk, row_payload) on an Engine configured from the ServerConfig{}
// defaults.
#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/rows.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"

namespace rsb::e2e {
namespace {

namespace json = service::json;

constexpr int kSetupRepeats = 5;
/// The timed loop's jobs are also measured as this many blocks. A single
/// job is no block: two clients' jobs overlap, so throughput needs several.
constexpr std::uint64_t kBlocks = 5;
constexpr int kClients = 2;
constexpr std::uint64_t kJobsPerCycle = 3;
constexpr std::uint64_t kJobRuns = 16384;
/// Seeds reserved per (phase, cycle, client): the cold range plus the
/// overlap's tail.
constexpr std::uint64_t kWindow = 2 * kJobRuns;
/// Half the range plus a shift that is not a multiple of the 256-run chunk.
constexpr std::uint64_t kOverlapShift = kJobRuns / 2 + 77;
constexpr std::array<const char*, 2> kProtocols = {
    "wait-for-singleton-LE", "blackboard-unique-string-LE"};

enum class JobKind { kCold, kWarm, kOverlap };

std::string spec_text(std::size_t protocol, std::uint64_t first) {
  return "loads=1,1,1,1,1,1\nprotocol=" + std::string(kProtocols[protocol]) +
         "\ntask=leader-election\nrounds=300\nseeds=" + std::to_string(first) +
         "+" + std::to_string(kJobRuns);
}

/// First seed of the window of (phase, cycle, client); phase 0 is setup, 1
/// the timed loop, 2 the traced loop. Windows are 256-aligned, so a cold
/// range is exactly 64 whole chunks.
std::uint64_t window_first(std::uint64_t base, std::uint64_t phase,
                           std::uint64_t cycle, int client) {
  return base + ((phase << 24) + cycle * kClients +
                 static_cast<std::uint64_t>(client)) *
                    kWindow;
}

struct ServedRow {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::string payload;  // the row object's bytes as served
};

struct JobRecord {
  JobKind kind = JobKind::kCold;
  std::size_t protocol = 0;
  std::uint64_t first = 0;
  std::uint64_t id = 0;
  std::string spec;
  Clock::time_point submit, accepted, first_row, done;
  bool got_accepted = false;
  bool got_done = false;
  std::vector<double> row_gaps_ms;
  std::vector<ServedRow> rows;
  std::uint64_t chunks = 0;
  std::uint64_t runs = 0;
  std::uint64_t runs_executed = 0;
  std::uint64_t runs_cached = 0;
  std::uint64_t runs_deduped = 0;
  std::string error;  // set when the job failed on the wire
};

std::uint64_t uint_member(const json::Value& value, const char* key) {
  const json::Value* member = value.find(key);
  if (member == nullptr) {
    throw std::runtime_error(std::string("reply lacks \"") + key + "\"");
  }
  return member->as_uint();
}

/// One job as rsbctl runs it: connect, submit, read rows until done.
JobRecord run_job(int port, JobKind kind, std::size_t protocol,
                  std::uint64_t first, std::uint64_t id, Tracer* tracer) {
  JobRecord job;
  job.kind = kind;
  job.protocol = protocol;
  job.first = first;
  job.id = id;
  job.spec = spec_text(protocol, first);
  Scope root(tracer, kBench, id);
  try {
    service::Client client;
    job.submit = Clock::now();
    {
      Scope span(tracer, kClientCall, id);
      client.connect(port);
      client.send_line(service::submit_request(job.spec));
    }
    Clock::time_point last_row = job.submit;
    while (true) {
      std::optional<std::string> line;
      {
        Scope span(tracer, kClientWait, id);
        line = client.read_line();
      }
      const Clock::time_point at = Clock::now();
      if (!line) {
        job.error = "connection dropped before the done line";
        break;
      }
      json::Value msg;
      {
        Scope span(tracer, kJsonParse, id);
        msg = json::Value::parse(*line);
      }
      const json::Value* type = msg.find("type");
      const std::string type_name =
          type != nullptr && type->is_string() ? type->as_string() : "";
      if (type_name == "accepted") {
        job.accepted = at;
        job.got_accepted = true;
        job.chunks = uint_member(msg, "chunks");
      } else if (type_name == "row") {
        if (job.rows.empty()) {
          job.first_row = at;
        } else {
          job.row_gaps_ms.push_back(ms_between(last_row, at));
        }
        last_row = at;
        const json::Value* row = msg.find("row");
        const std::size_t at_row = line->rfind(",\"row\":");
        if (row == nullptr || at_row == std::string::npos ||
            line->back() != '}') {
          job.error = "malformed row line";
          break;
        }
        ServedRow served;
        served.first = uint_member(*row, "seed_first");
        served.count = uint_member(*row, "seeds");
        served.payload = line->substr(at_row + 7, line->size() - at_row - 8);
        job.rows.push_back(std::move(served));
      } else if (type_name == "done") {
        job.done = at;
        job.got_done = true;
        job.runs = uint_member(msg, "runs");
        job.runs_executed = uint_member(msg, "runs_executed");
        job.runs_cached = uint_member(msg, "runs_cached");
        job.runs_deduped = uint_member(msg, "runs_deduped");
        break;
      } else {
        job.error = "unexpected reply: " + line->substr(0, 200);
        break;
      }
    }
  } catch (const std::exception& e) {
    job.error = e.what();
  }
  return job;
}

void client_loop(int port, std::uint64_t base, std::uint64_t phase,
                 std::uint64_t cycles, int client, Tracer* tracer,
                 std::vector<JobRecord>& jobs) {
  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    const std::uint64_t first = window_first(base, phase, cycle, client);
    const std::size_t protocol =
        static_cast<std::size_t>((cycle + static_cast<std::uint64_t>(client)) %
                                 kProtocols.size());
    const std::uint64_t id = (phase << 40) |
                             (static_cast<std::uint64_t>(client) << 32) |
                             (cycle * kJobsPerCycle);
    jobs.push_back(run_job(port, JobKind::kCold, protocol, first, id, tracer));
    jobs.push_back(
        run_job(port, JobKind::kWarm, protocol, first, id + 1, tracer));
    jobs.push_back(run_job(port, JobKind::kOverlap, protocol,
                           first + kOverlapShift, id + 2, tracer));
  }
}

struct ServiceLoop {
  std::vector<JobRecord> jobs;
  double wall_s = 0.0;
};

ServiceLoop run_loop(int port, std::uint64_t base, std::uint64_t phase,
                     std::uint64_t cycles,
                     std::array<Tracer, kClients>* tracers) {
  std::array<std::vector<JobRecord>, kClients> per_client;
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  try {
    for (int c = 0; c < kClients; ++c) {
      Tracer* tracer = tracers != nullptr
                           ? &(*tracers)[static_cast<std::size_t>(c)]
                           : nullptr;
      threads.emplace_back([&per_client, port, base, phase, cycles, c,
                            tracer] {
        client_loop(port, base, phase, cycles, c, tracer,
                    per_client[static_cast<std::size_t>(c)]);
      });
    }
  } catch (...) {
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();
  ServiceLoop loop;
  loop.wall_s = seconds_between(start, Clock::now());
  for (std::vector<JobRecord>& jobs : per_client) {
    for (JobRecord& job : jobs) loop.jobs.push_back(std::move(job));
  }
  return loop;
}

std::vector<const JobRecord*> by_submit(const std::vector<JobRecord>& jobs) {
  std::vector<const JobRecord*> order;
  for (const JobRecord& job : jobs) order.push_back(&job);
  std::sort(order.begin(), order.end(),
            [](const JobRecord* a, const JobRecord* b) {
              return a->submit < b->submit;
            });
  return order;
}

LoopSample sample_of(std::span<const JobRecord* const> jobs, double wall_s) {
  LoopSample sample;
  sample.wall_s = wall_s;
  for (const JobRecord* job : jobs) {
    if (!job->error.empty() || !job->got_done) continue;
    const double ms = ms_between(job->submit, job->done);
    sample.op_ms.push_back(ms);
    sample.runs += job->runs_executed + job->runs_cached;
    if (job->runs_cached == 0) {
      sample.cold_ms.push_back(ms);
      if (!job->rows.empty()) {
        sample.first_row_ms.push_back(ms_between(job->submit, job->first_row));
      }
    }
    if (job->runs_executed == 0) sample.warm_ms.push_back(ms);
  }
  return sample;
}

LoopSample sample_of(const ServiceLoop& loop) {
  return sample_of(by_submit(loop.jobs), loop.wall_s);
}

/// The loop's jobs in submit order, cut into kBlocks slices of equal job
/// count. A slice's wall time runs from its first submit to its last done.
std::vector<LoopSample> blocks_of(const ServiceLoop& loop) {
  const std::vector<const JobRecord*> order = by_submit(loop.jobs);
  std::vector<LoopSample> blocks;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const std::span<const JobRecord* const> slice(
        order.begin() + static_cast<std::ptrdiff_t>(order.size() * b / kBlocks),
        order.begin() +
            static_cast<std::ptrdiff_t>(order.size() * (b + 1) / kBlocks));
    if (slice.empty()) continue;
    Clock::time_point last = slice.front()->submit;
    for (const JobRecord* job : slice) {
      if (job->got_done) last = std::max(last, job->done);
    }
    blocks.push_back(
        sample_of(slice, seconds_between(slice.front()->submit, last)));
  }
  return blocks;
}

/// Counter checks on one job's wire record; "" when it passes.
std::string check_job(const JobRecord& job) {
  if (!job.error.empty()) return job.error;
  if (!job.got_accepted || !job.got_done) return "no accepted or done line";
  if (job.runs != kJobRuns) {
    return "done reports " + std::to_string(job.runs) + " runs";
  }
  if (job.runs_executed + job.runs_cached != job.runs) {
    return "runs_executed + runs_cached != runs";
  }
  const std::vector<SeedRange> plan =
      service::chunk_plan(SeedRange::of(job.first, kJobRuns));
  if (job.chunks != plan.size() || job.rows.size() != plan.size()) {
    return "row count differs from the chunk plan";
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (job.rows[i].first != plan[i].first ||
        job.rows[i].count != plan[i].count) {
      return "row " + std::to_string(i) + " covers the wrong seeds";
    }
  }
  switch (job.kind) {
    case JobKind::kCold:
      if (job.runs_cached != 0) return "cold job served cached runs";
      break;
    case JobKind::kWarm:
      if (job.runs_executed != 0) return "warm job executed runs";
      break;
    case JobKind::kOverlap:
      if (job.runs_executed == 0 || job.runs_cached == 0) {
        return "overlap job was not partly cached";
      }
      break;
  }
  return "";
}

std::string job_label(const JobRecord& job) {
  return "job " + std::to_string(job.id);
}

/// Rows as service::run_chunk produces them on a fresh reference Engine,
/// memoized per (protocol, chunk) so warm and overlap jobs reuse them.
class ReferenceRows {
 public:
  ReferenceRows() {
    engine_.set_parallel(kReferenceLanes);
    for (std::size_t p = 0; p < kProtocols.size(); ++p) {
      experiments_[p] =
          service::CanonicalSpec::parse(spec_text(p, 0)).to_experiment();
    }
  }

  /// "" when every row of the job matches.
  std::string check(const JobRecord& job) {
    for (const ServedRow& row : job.rows) {
      const auto key = std::make_tuple(job.protocol, row.first, row.count);
      auto it = rows_.find(key);
      if (it == rows_.end()) {
        it = rows_
                 .emplace(key, service::run_chunk(
                                   engine_, experiments_[job.protocol],
                                   SeedRange::of(row.first, row.count)))
                 .first;
      }
      if (it->second != row.payload) {
        return "row at seed " + std::to_string(row.first) +
               " differs from run_chunk";
      }
    }
    return "";
  }

 private:
  Engine engine_;
  std::array<Experiment, kProtocols.size()> experiments_;
  std::map<std::tuple<std::size_t, std::uint64_t, std::uint64_t>, std::string>
      rows_;
};

json::Value read_stats(int port) {
  service::Client client;
  client.connect(port);
  return json::Value::parse(client.request("{\"op\":\"stats\"}"));
}

/// The stats op's totals must equal the sums over the done lines of every
/// job the server answered.
std::string check_stats(const json::Value& stats,
                        const std::vector<const JobRecord*>& jobs) {
  std::uint64_t completed = 0, executed = 0, cached = 0, deduped = 0;
  for (const JobRecord* job : jobs) {
    if (!job->got_done) continue;
    ++completed;
    executed += job->runs_executed;
    cached += job->runs_cached;
    deduped += job->runs_deduped;
  }
  if (uint_member(stats, "jobs_completed") != completed) {
    return "jobs_completed differs from the done lines";
  }
  if (uint_member(stats, "runs_executed") != executed) {
    return "runs_executed differs from the done lines";
  }
  if (uint_member(stats, "runs_cached") != cached) {
    return "runs_cached differs from the done lines";
  }
  if (uint_member(stats, "runs_deduped") != deduped) {
    return "runs_deduped differs from the done lines";
  }
  return "";
}

double open_fds() {
  double count = 0.0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    count += 1.0;
  }
  return count;
}

double thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8));
  }
  return 0.0;
}

struct ReplayTotals {
  std::uint64_t bytes = 0;
  std::uint64_t orbit_hits = 0;
  std::uint64_t orbit_reps = 0;
  std::size_t store_high_water = 0;
};

/// Replays every chunk the jobs were served, in submit order, through the
/// service's public calls, and judges each job: its counters, and every
/// replayed row against the served bytes.
ReplayTotals replay_jobs(const std::vector<JobRecord>& jobs, Tracer& tracer,
                         WorkloadResult& result) {
  const service::ServerConfig defaults;
  Engine engine;
  engine.set_parallel({defaults.threads, 0, defaults.batch, defaults.orbit});
  service::ResultCache cache(defaults.cache_bytes);
  ReplayTotals totals;
  for (const JobRecord* job : by_submit(jobs)) {
    std::string failure = check_job(*job);
    if (failure.empty()) {
      Scope root(&tracer, kBench, job->id);
      Experiment experiment;
      std::uint64_t hash = 0;
      {
        Scope span(&tracer, kCanonical, job->id);
        const std::vector<service::SpecPoint> points =
            service::expand_request(job->spec, defaults.max_points);
        experiment = points.front().spec.to_experiment();
        hash = points.front().spec.hash();
      }
      for (const ServedRow& row : job->rows) {
        const SeedRange chunk = SeedRange::of(row.first, row.count);
        const service::ResultCache::Key key{hash, row.first, row.count};
        std::optional<service::ResultCache::Entry> hit;
        {
          Scope span(&tracer, kCacheLookup, job->id);
          hit = cache.lookup(key);
        }
        RunStats stats;
        if (hit.has_value()) {
          stats = std::move(hit->stats);
        } else {
          std::string executed;
          {
            Scope span(&tracer, kRunChunk, job->id);
            executed = service::run_chunk(engine, experiment, chunk, &stats);
          }
          cache.insert(key,
                       service::ResultCache::Entry{std::move(executed), stats});
        }
        std::string payload;
        {
          Scope span(&tracer, kSerialize, job->id);
          payload = service::row_payload(chunk, stats);
        }
        totals.bytes += payload.size();
        if (failure.empty() && payload != row.payload) {
          failure = "row at seed " + std::to_string(row.first) +
                    " differs from the replayed run_chunk";
        }
      }
    }
    result.judge(job_label(*job), failure);
  }
  totals.orbit_hits = engine.orbit_hits();
  totals.orbit_reps = engine.orbit_reps();
  totals.store_high_water = engine.store_high_water();
  return totals;
}

}  // namespace

WorkloadResult run_service_workload(const Options& options) {
  WorkloadResult result;
  // Seed ranges derive from the workload seed alone; the base is
  // 256-aligned like every window, so chunk boundaries do not move with it.
  const std::uint64_t base = (derive_seed(options.seed, 0x5e41ce) >> 28) << 8;
  const std::uint64_t jobs_per_cycle = kClients * kJobsPerCycle;
  const std::uint64_t cycles = std::max<std::uint64_t>(
      1, (options.ops + jobs_per_cycle - 1) / jobs_per_cycle);

  std::unique_ptr<service::Server> server;
  std::vector<JobRecord> setup_jobs;
  std::vector<double> setup_s;
  for (int s = 0; s < kSetupRepeats; ++s) {
    if (server != nullptr) {
      server->stop();
      server.reset();
    }
    const Clock::time_point start = Clock::now();
    for (std::size_t p = 0; p < kProtocols.size(); ++p) {
      (void)service::CanonicalSpec::parse(spec_text(p, 0)).to_experiment();
    }
    server = std::make_unique<service::Server>(service::ServerConfig{});
    server->start();
    setup_jobs.push_back(run_job(
        server->port(), JobKind::kCold, 0,
        window_first(base, 0, static_cast<std::uint64_t>(s), 0),
        static_cast<std::uint64_t>(s), nullptr));
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  add_setup(result, setup_s);

  const int port = server->port();
  const ServiceLoop timed = run_loop(port, base, 1, cycles, nullptr);
  const LoopSample untraced = sample_of(timed);
  add_loop_metrics(result, untraced);
  add_best_of_blocks(result, blocks_of(timed));

  const std::array<const std::vector<JobRecord>*, 2> checked_groups = {
      &setup_jobs, &timed.jobs};
  // Every job the kept server answered, for the stats check.
  std::vector<const JobRecord*> answered = {&setup_jobs.back()};
  for (const JobRecord& job : timed.jobs) answered.push_back(&job);

  if (!options.trace) {
    ReferenceRows reference;
    for (const std::vector<JobRecord>* jobs : checked_groups) {
      for (const JobRecord& job : *jobs) {
        std::string failure = check_job(job);
        if (failure.empty()) failure = reference.check(job);
        result.judge(job_label(job), failure);
      }
    }
    std::string failure;
    try {
      failure = check_stats(read_stats(port), answered);
    } catch (const std::exception& e) {
      failure = e.what();
    }
    result.judge("stats op", failure);
    server->stop();
    return result;
  }

  std::array<Tracer, kClients> client_tracers;
  const ServiceLoop traced = run_loop(port, base, 2, cycles, &client_tracers);
  for (const JobRecord& job : traced.jobs) answered.push_back(&job);
  json::Value stats;
  std::string stats_failure;
  try {
    stats = read_stats(port);
    stats_failure = check_stats(stats, answered);
  } catch (const std::exception& e) {
    stats_failure = e.what();
  }
  const double fds = open_fds();
  const double threads = thread_count();
  server->stop();

  for (const std::vector<JobRecord>* jobs : checked_groups) {
    for (const JobRecord& job : *jobs) {
      result.judge(job_label(job), check_job(job));
    }
  }
  Tracer replay;
  const ReplayTotals totals = replay_jobs(traced.jobs, replay, result);
  result.judge("stats op", stats_failure);
  add_trace_overhead(result, untraced, sample_of(traced));

  Tracer clients;
  for (const Tracer& tracer : client_tracers) clients.merge(tracer);
  std::map<std::string, double>& v = result.values;
  add_layer(result, "service.client.wait_s", clients, kClientWait);
  add_layer(result, "service.json.parse_s", clients, kJsonParse);
  add_layer(result, "service.canonical.expand_s", replay, kCanonical);
  add_layer(result, "service.cache.lookup_s", replay, kCacheLookup);
  add_layer(result, "service.rows.run_chunk_s", replay, kRunChunk);
  add_layer(result, "service.rows.serialize_s", replay, kSerialize);
  v["service.rows.bytes"] = static_cast<double>(totals.bytes);
  v["engine.orbit.hits"] = static_cast<double>(totals.orbit_hits);
  v["engine.orbit.reps"] = static_cast<double>(totals.orbit_reps);
  v["engine.store_high_water"] = static_cast<double>(totals.store_high_water);

  const auto stat = [](const json::Value* object, const char* key) {
    const json::Value* member = object != nullptr ? object->find(key) : nullptr;
    return member != nullptr ? static_cast<double>(member->as_uint()) : 0.0;
  };
  const json::Value* cache = stats.is_object() ? stats.find("cache") : nullptr;
  const json::Value* server_stats = stats.is_object() ? &stats : nullptr;
  v["service.cache.hits"] = stat(cache, "hits");
  v["service.cache.misses"] = stat(cache, "misses");
  v["service.cache.evictions"] = stat(cache, "evictions");
  const double lookups = v["service.cache.hits"] + v["service.cache.misses"];
  v["service.cache.hit_ratio"] =
      lookups > 0.0 ? v["service.cache.hits"] / lookups : 0.0;
  v["service.server.runs_executed"] = stat(server_stats, "runs_executed");
  v["service.server.runs_cached"] = stat(server_stats, "runs_cached");
  v["service.server.runs_deduped"] = stat(server_stats, "runs_deduped");
  v["service.server.open_fds"] = fds;
  v["service.server.threads"] = threads;

  std::vector<double> admit, queue, gaps;
  for (const JobRecord& job : traced.jobs) {
    if (!job.error.empty() || !job.got_done) continue;
    admit.push_back(ms_between(job.submit, job.accepted));
    if (!job.rows.empty()) queue.push_back(ms_between(job.accepted, job.first_row));
    gaps.insert(gaps.end(), job.row_gaps_ms.begin(), job.row_gaps_ms.end());
  }
  v["service.server.admit_ms_p50"] = median(admit);
  v["service.server.queue_ms_p50"] = median(queue);
  v["service.server.row_gap_ms_p50"] = median(gaps);
  return result;
}

}  // namespace rsb::e2e
