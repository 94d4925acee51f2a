// Chunked result rows: the unit of streaming, caching, and determinism.
//
// A service query is answered as a sequence of ResultTable-style rows, one
// per *chunk* of the requested seed range. Chunks are aligned to absolute
// multiples of kChunkRuns in seed space — chunk boundaries depend only on
// the seed numbers, never on where a particular query's range starts — so
// two overlapping queries of the same spec share their interior chunks
// byte-for-byte and cache-entry-for-cache-entry; only the (at most two)
// partial edge chunks of a misaligned range are query-shaped. One rule,
// first_chunk, cuts them: the server cuts each row's chunk off the front of
// a job's remaining range as it serves it, so it never lists a job's
// chunks; chunk_plan lists them for the in-process reference, and
// chunk_count counts them in O(1) for the accepted line. Each chunk
// is executed as Engine::run_collect would sweep the spec restricted to
// it (its port stream starts at the chunk's first seed) into a RunStats —
// run_chunks sweeps several chunks in one drive, one RunStats each — and
// serialized by row_payload() into a canonical JSON object of integer
// counters:
//
//   {"seed_first":256,"seeds":256,"runs":256,"terminated":256,
//    "total_rounds":980,"crashed_parties":0,"task_checked":true,
//    "successes":241,"rounds":{"3":120,...},"outputs":{"0":1280,"1":241}}
//
// Integer counters only — no doubles — so the bytes are exactly
// reproducible on any libc. The pinned invariant: for a given (spec, seed
// range), the concatenation of row payloads served by the daemon — cold,
// cached, or interleaved with other clients — is byte-identical to
// reference_rows() computed in-process on a fresh Engine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "service/canonical.hpp"

namespace rsb::service {

/// Runs per chunk; also the alignment of chunk boundaries in seed space.
inline constexpr std::uint64_t kChunkRuns = 256;

/// The chunk rule: the first chunk of a nonempty `range` runs from
/// range.first to the next absolute multiple of kChunkRuns or to the
/// range's end, whichever comes first. Empty for an empty range.
SeedRange first_chunk(SeedRange range);

/// Splits [range.first, range.first + range.count) by cutting first_chunk
/// off its front until nothing is left, in ascending seed order. Every
/// chunk is nonempty; interior chunks are exactly kChunkRuns long and
/// aligned.
std::vector<SeedRange> chunk_plan(SeedRange range);

/// chunk_plan(range).size(), in O(1).
std::uint64_t chunk_count(SeedRange range);

/// Serializes one executed chunk as the canonical row payload (see file
/// header). `stats` must be the RunStats of exactly that chunk.
std::string row_payload(SeedRange chunk, const RunStats& stats);

/// Executes the chunks of the spec in one engine sweep
/// (Engine::run_collect_ranges) and returns their payloads in the order
/// given; chunk k's payload is what run_collect over a copy of `spec`
/// restricted to chunks[k] serializes to. When `stats_out` is set it
/// receives each chunk's RunStats, in the same order. At most
/// kMaxChunksPerBatch chunks.
std::vector<std::string> run_chunks(Engine& engine, const Experiment& spec,
                                    std::span<const SeedRange> chunks,
                                    std::vector<RunStats>* stats_out = nullptr);

/// Executes one chunk of the spec and returns its payload: run_chunks of
/// that one chunk.
std::string run_chunk(Engine& engine, const Experiment& spec, SeedRange chunk,
                      RunStats* stats_out = nullptr);

/// The in-process reference the daemon is pinned against: every chunk of
/// the spec's seed range, executed and serialized in order.
std::vector<std::string> reference_rows(Engine& engine,
                                        const CanonicalSpec& spec);

}  // namespace rsb::service
