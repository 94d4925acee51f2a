#include "service/rows.hpp"

#include <algorithm>

#include "service/json.hpp"

namespace rsb::service {

SeedRange first_chunk(SeedRange range) {
  const std::uint64_t to_boundary = kChunkRuns - range.first % kChunkRuns;
  return SeedRange::of(range.first, std::min(range.count, to_boundary));
}

std::vector<SeedRange> chunk_plan(SeedRange range) {
  std::vector<SeedRange> out;
  while (range.count > 0) {
    const SeedRange chunk = first_chunk(range);
    out.push_back(chunk);
    range = SeedRange::of(range.first + chunk.count, range.count - chunk.count);
  }
  return out;
}

std::uint64_t chunk_count(SeedRange range) {
  if (range.count == 0) return 0;
  const std::uint64_t last = range.first + (range.count - 1);
  return last / kChunkRuns - range.first / kChunkRuns + 1;
}

std::string row_payload(SeedRange chunk, const RunStats& stats) {
  // Hand-rolled in field order (json::Value would work too, but the row is
  // the hot serialization path and the format is fixed); integer counters
  // only, so the bytes are libc-independent.
  std::string out = "{\"seed_first\":" + std::to_string(chunk.first);
  out += ",\"seeds\":" + std::to_string(chunk.count);
  out += ",\"runs\":" + std::to_string(stats.runs);
  out += ",\"terminated\":" + std::to_string(stats.terminated);
  out += ",\"total_rounds\":" + std::to_string(stats.total_rounds);
  out += ",\"crashed_parties\":" + std::to_string(stats.crashed_parties);
  out += ",\"task_checked\":";
  out += stats.task_checked ? "true" : "false";
  if (stats.task_checked) {
    out += ",\"successes\":" + std::to_string(stats.task_successes);
  }
  out += ",\"rounds\":{";
  bool first = true;
  for (const auto& [rounds, count] : stats.round_histogram) {
    if (!first) out += ',';
    first = false;
    out += '"' + std::to_string(rounds) + "\":" + std::to_string(count);
  }
  out += "},\"outputs\":{";
  first = true;
  for (const auto& [value, count] : stats.output_counts) {
    if (!first) out += ',';
    first = false;
    out += '"' + std::to_string(value) + "\":" + std::to_string(count);
  }
  out += "}}";
  return out;
}

std::vector<std::string> run_chunks(Engine& engine, const Experiment& spec,
                                    std::span<const SeedRange> chunks,
                                    std::vector<RunStats>* stats_out) {
  std::vector<RunStats> stats =
      engine.run_collect_ranges(spec, chunks, RunStats{});
  std::vector<std::string> payloads;
  payloads.reserve(chunks.size());
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    payloads.push_back(row_payload(chunks[k], stats[k]));
  }
  if (stats_out != nullptr) *stats_out = std::move(stats);
  return payloads;
}

std::string run_chunk(Engine& engine, const Experiment& spec, SeedRange chunk,
                      RunStats* stats_out) {
  std::vector<RunStats> stats;
  std::string payload =
      std::move(run_chunks(engine, spec, std::span(&chunk, 1), &stats)[0]);
  if (stats_out != nullptr) *stats_out = std::move(stats[0]);
  return payload;
}

std::vector<std::string> reference_rows(Engine& engine,
                                        const CanonicalSpec& spec) {
  const Experiment experiment = spec.to_experiment();
  std::vector<std::string> out;
  for (const SeedRange chunk : chunk_plan(spec.seeds)) {
    out.push_back(run_chunk(engine, experiment, chunk));
  }
  return out;
}

}  // namespace rsb::service
