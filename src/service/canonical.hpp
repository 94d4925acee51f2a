// Canonical experiment-spec wire format with a stable 64-bit spec hash.
//
// The service layer (rsbd / rsbctl, src/service/server.hpp) needs a spec
// representation that (a) travels over a socket as plain text, (b) is
// *canonical* — two requests describing the same ensemble serialize to the
// same bytes however the client ordered or spelled them — and (c) hashes
// stably, because the result cache (src/service/cache.hpp) keys completed
// (spec, seed range) shards by that hash across daemon restarts and client
// generations. The existing string-spec registries (engine/registry.hpp)
// are the vocabulary: protocols and tasks appear as registry spec strings
// ("wait-for-singleton-LE", "m-leader-election(2)"), never as C++ objects,
// so every wire spec is constructible on any peer.
//
// Textual form: `key=value` pairs separated by newlines or semicolons
// ('#' starts a comment, whitespace around keys/values is ignored):
//
//   model=message-passing
//   loads=2,3
//   protocol=wait-for-singleton-LE
//   task=leader-election
//   seeds=1+1000
//
// canonical_text() re-emits the pairs one per line, keys sorted, with
// every default-valued pair omitted — so an explicitly spelled default and
// an omitted key are literally the same spec, and reordering never changes
// the bytes. The seed range is deliberately NOT part of the canonical
// identity (or the hash): the cache subsumes overlapping sweeps of one
// spec, so identity is "which ensemble", and `seeds` rides alongside as
// the query range.
//
// Grid requests: any value except `seeds` may carry `|`-separated
// alternatives ("rounds=100|300"); expand() yields the cartesian product
// as fully-formed single-point specs, axes expanding in sorted-key order
// with the first sorted axis slowest (the same row-major convention as
// engine/grid.hpp), each point labelled by its coordinates.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/experiment.hpp"

namespace rsb::service {

/// The largest party count (sum of `loads`) a spec may declare — the
/// largest any in-repo run uses. parse() rejects a larger total by name,
/// before to_experiment() could allocate per party.
inline constexpr int kMaxParties = 4096;

/// The largest per-run work rsbd admits: rounds × parties on the
/// blackboard and rounds × parties × (parties − 1) for message passing —
/// the values one run's round operators read if it takes every round, so
/// a bound on the time and the knowledge-store memory one run can take.
/// Submit rejects a larger spec by name (CanonicalSpec::check_run_work);
/// parse() does not, so every spec keeps its canonical text and hash.
/// At 2^20, one run that takes every round stays near 0.15 s and 40 MB
/// of peak RSS (Release, one x86-64 core): blackboard loads 2×32 at
/// 16,384 rounds took 0.07 s and 41 MB, loads 2,2,2,2 at 131,072 rounds
/// 0.14 s and 43 MB, and message passing all-private n = 16 at 4,369
/// rounds under a rule that never decides 0.03 s and 21 MB.
inline constexpr std::int64_t kMaxRunWork = std::int64_t{1} << 20;

/// A parsed, canonicalizable experiment spec. Fields mirror Experiment but
/// hold registry spec strings instead of objects; to_experiment() resolves
/// them. Default-constructed fields equal the Experiment defaults.
struct CanonicalSpec {
  std::string model = "blackboard";  // "blackboard" | "message-passing"
  std::vector<int> loads;            // source loads; required, nonempty
  /// ProtocolRegistry spec string (knowledge backend). Exactly one of
  /// `protocol` / `agents` must be set — a spec drives one backend.
  std::string protocol;
  /// graph::AgentRegistry spec string (agent backend): "luby-mis",
  /// "trial-coloring", "ruling-set-2", "gossip-le". "" = knowledge backend.
  std::string agents;
  /// TaskRegistry spec string, or a graph::GraphTaskRegistry name ("mis",
  /// "coloring", "2-ruling-set") when `topology` is set; "" = none.
  std::string task;
  /// TopologyRegistry spec string ("ring", "d-regular(3)", ...); "" = the
  /// all-to-all default. "clique" is normalized away in canonical_text()
  /// so pre-topology spec hashes are unchanged.
  std::string topology;
  /// Seed for randomized generators (d-regular, erdos-renyi, power-law);
  /// inert — and normalized away — for deterministic ones. Must equal the
  /// Experiment::topology_seed default.
  std::uint64_t topology_seed = 0x70b01ULL;
  /// Port policy name (to_string(PortPolicy)); "" = the model's default:
  /// none on the blackboard, random-per-run on message passing.
  std::string port_policy;
  std::vector<int> ports;  // fixed wiring (policy "fixed"): row-major matrix
  std::uint64_t port_seed = 0x9e3779b9;
  std::string variant = "port-tagged";  // | "literal"
  int fault_crashes = 0;
  int fault_window = 8;
  std::uint64_t fault_seed = 0xfa017ULL;
  /// The accepted `batch=N` (N >= 0) and `orbit=on|off` keys; 0 and ""
  /// when absent. Nothing reads them: they select nothing, so they are
  /// normalized out of canonical_text() and the spec hash, and requests
  /// differing only in them share cache shards.
  int batch = 0;
  std::string orbit;
  /// Total adaptive run budget across every point of the request
  /// (engine/grid.hpp, run_grid_adaptive); 0 = uniform sweep (every point
  /// runs its full seed range). When set, the daemon pilots each point
  /// with `pilot` runs and grows the widest-CI points in rounds, capping
  /// each point at its seeds count. This is an execution-strategy knob
  /// normalized out of canonical_text() and the hash: adaptive sweeps
  /// execute pure (spec, seed-range) shards keyed under the same spec hash
  /// a uniform sweep uses, so adaptive and uniform requests over one
  /// ensemble share the cache namespace (and whole entries whenever their
  /// chunk ranges coincide).
  std::uint64_t adaptive_budget = 0;
  /// Pilot runs per point for adaptive sweeps; 0 = the daemon's default.
  /// Inert (and normalized away) when adaptive_budget is 0.
  std::uint64_t pilot = 0;
  /// Scheduler spec in SchedulerSpec::to_string form: "synchronous",
  /// "random-delay(3)", "starve{0,2}(4)".
  std::string sched = "synchronous";
  std::uint64_t sched_seed = 0x5ced01eULL;
  int rounds = 300;
  SeedRange seeds;  // the query range; NOT part of canonical identity

  /// Parses the key=value text form. Unknown keys, malformed values,
  /// duplicate keys and a loads total above kMaxParties throw
  /// InvalidArgument; registry names are resolved lazily by
  /// to_experiment(), not here. Values containing '|' are rejected here —
  /// parse grid requests with expand().
  static CanonicalSpec parse(const std::string& text);

  /// The canonical identity: key-sorted `key=value` lines, one per line,
  /// defaults omitted, seeds omitted. parse(canonical_text()) round-trips.
  std::string canonical_text() const;

  /// Stable 64-bit hash of canonical_text() (util/hash.hpp chain; no
  /// per-process seed, so hashes persist across daemon restarts).
  std::uint64_t hash() const;

  /// `hash()` as 16 lowercase hex digits — the wire/cache-file spelling.
  std::string hash_hex() const;

  /// Builds and validates the runnable Experiment via the global
  /// registries. Throws UnknownName / InvalidArgument on unresolvable or
  /// invalid specs.
  Experiment to_experiment() const;

  /// The spec's per-run work in kMaxRunWork's unit: rounds × parties,
  /// times (parties − 1) for message passing.
  std::int64_t run_work() const;

  /// Throws InvalidArgument, naming the work bound, when the spec's
  /// per-run work exceeds kMaxRunWork.
  void check_run_work() const;
};

/// One point of an expanded grid request: the spec plus a display label
/// ("rounds=100 loads=2,3"; empty for a single-point request).
struct SpecPoint {
  std::string label;
  CanonicalSpec spec;
};

/// Parses a request that may carry `|`-alternatives and expands it to the
/// cartesian product of single-point specs. Axes expand in sorted-key
/// order, first sorted axis slowest; alternatives keep their declared
/// order. A request without alternatives yields exactly one unlabelled
/// point. Throws InvalidArgument when the expansion exceeds `max_points`.
std::vector<SpecPoint> expand_request(const std::string& text,
                                      std::size_t max_points = 4096);

}  // namespace rsb::service
