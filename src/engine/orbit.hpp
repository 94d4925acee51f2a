// Orbit-level run deduplication: symmetry-break the seed space itself.
//
// The paper's whole subject is symmetry breaking on anonymous networks,
// and the ensembles the engine sweeps inherit the symmetry: a knowledge-
// backend run is a pure function of its *initial configuration* — the
// per-party coin columns (one bit per source per executed round), the
// per-party crash schedule, and the port wiring — and that function is
// equivariant under relabeling the parties. On the blackboard every party
// sees only its own column plus the posted multiset, so the full symmetric
// group S_n acts: two configurations whose (column, crash) multisets match
// are isomorphic executions and their outcomes differ only by the
// relabeling. Under message passing the action is the port-preserving one:
// configurations are isomorphic when some party bijection carries columns,
// crash rounds, AND the wiring (neighbor'(f(i), p) = f(neighbor(i, p)))
// onto each other.
//
// An OrbitTable memoizes executed runs by a canonical form of their
// consumed configuration prefix. A run that draws r rounds of bits is
// determined by its r-round prefix, so the memo is leveled by r: level r
// maps the canonical key of an r-round prefix to the outcome of the run
// that consumed it (in canonical party order). A candidate probes the
// nonempty levels in ascending r; the first match wins, and the cached
// outcome is replicated back through the candidate's own ranks — the
// result is byte-identical to executing the candidate, the load-bearing
// law pinned by tests/orbit_test.cpp across threads x lookup-group widths
// on both canonicalizers, crash-fault sweeps included.
//
// Why first-match-ascending is sound: a match at level r means the
// candidate's r-prefix is isomorphic to a prefix that fully determined
// the representative's outcome. Isomorphic prefixes force identical
// halting behavior (the run is an equivariant function of the prefix), so
// the candidate's own run would consume exactly the same r rounds — a
// level-r entry can only ever match candidates whose true consumption is
// r. Every representative executes alone through run_prepared, whose
// consumption is a function of the configuration alone — on a fault-free
// run the protocol's rule decides before the round, so a final round
// whose bits are unobservable is always skipped — so each orbit is
// memoized at exactly one level.
//
// Safe-group detection: the group the table may quotient by depends on
// the protocol, not just the model. A protocol's decision rule is a pure
// function of (store, knowledge ids), and interned ids are insertion-order
// handles — parties intern in index order, so an id-ORDER rule (e.g.
// wait-for-singleton-LE's "smallest unique knowledge value") reads the
// party labeling through the id numbering and is not equivariant: among
// several singleton classes, relabeling the run crowns a different one.
// Protocols declare invariance via
// AnonymousProtocol::knowledge_order_invariant():
//  * invariant (content-only rules, e.g. blackboard-unique-string-LE):
//    the full group acts — S_n on the blackboard, wiring-transport under
//    message passing — and the canonical forms below quotient by it.
//  * not invariant: only the identity relabeling is certainly outcome-
//    preserving, so the table matches configurations *literally* (the
//    ordered by-index tuple). Permutations of literally-equal parties fix
//    the tuple, so this is exactly the sound subgroup — fewer hits, never
//    a wrong byte.
//
// Canonical forms:
//  * blackboard, order-invariant protocol (tag 1): sort the per-party
//    (column, crash) pairs — the multiset itself. Ties are harmless: tied
//    parties have identical knowledge trajectories, hence identical
//    outputs.
//  * message passing, order-invariant protocol (tag 2): iterated color
//    refinement over the wiring — start from dense ranks of
//    (column, crash), refine each party's color by its port-ordered
//    neighbor colors until stable. When the partition is discrete the
//    refinement IS a canonical labeling; the key lists (column, crash,
//    neighbor ranks per port) in rank order.
//  * literal (tag 3): the raw configuration bytes in identity order —
//    (column, crash) per party, plus the full wiring under message
//    passing. Serves both the refinement bail-out (non-discrete
//    partitions, e.g. n = 2 with equal columns) and every id-order-
//    dependent protocol on either model. Only literally identical
//    configurations match — missed hits, never a wrong replication.
//
// Eligibility (OrbitTable::eligible): knowledge backend, no sparse
// topology, and either blackboard (PortPolicy::kNone) or message passing
// under kRandomPerRun — the policies where the per-run configuration
// carries the whole symmetry. Fixed/cyclic/adversarial wirings pin party
// identities across runs (only wiring automorphisms would act — not worth
// detecting), agent-backend runs consume 64-bit words per round (orbit
// collisions are vanishingly rare) and their factories index parties, and
// non-synchronous schedulers tag parties — all take the identity path:
// the engine simply never builds a table for them, so they pay zero
// overhead (pinned by the identity-path tests).
//
// Concurrency: one OrbitTable is shared by every worker of a sweep.
// Probes are worker-local scratch; the level maps are guarded by a
// shared_mutex (shared for lookups, exclusive for inserts), and insert is
// insert-if-absent — two workers racing on isomorphic configurations
// produce identical canonical entries, so whichever lands is right. The
// hit/representative counters are monotone diagnostics: their split is
// timing-dependent under threads > 1 (a run that would have hit may
// execute because the representative hadn't landed yet), but the summed
// invariant hits + reps = runs holds at any thread count, and the swept
// results never depend on the split at all.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "engine/experiment.hpp"
#include "util/rng.hpp"

namespace rsb {

/// Worker-local scratch for one candidate run: the replayed coin columns,
/// crash schedule, wiring copy, canonicalization buffers, and — on a hit —
/// the replicated outcome. Reused across candidates; owned by RunContext.
struct OrbitProbe {
  std::uint64_t seed = 0;
  /// The candidate's wiring, stable for the caller: points into
  /// ports_copy under kRandomPerRun (the provider's storage is transient),
  /// null on the blackboard.
  const PortAssignment* ports = nullptr;
  std::optional<PortAssignment> ports_copy;
  bool faulty = false;
  bool hit = false;
  ProtocolOutcome outcome;  // the replicated outcome, valid when hit

  // --- internals managed by OrbitTable --------------------------------
  std::vector<Xoshiro256StarStar> coins;     // per-source replay engines
  std::vector<std::uint64_t> source_cols;    // per-source packed bit prefixes
  int bits_drawn = 0;
  std::vector<int> crash;                    // per-party crash rounds
  std::vector<std::uint64_t> key;            // canonical key scratch
  std::vector<int> rank;                     // party -> canonical rank
  std::vector<std::array<std::uint64_t, 3>> triples;  // sort scratch
  std::vector<int> color, next_color, order, inverse;  // refinement scratch
};

/// The per-sweep memo table. Construct one per drive of an eligible spec
/// (Engine does this when ParallelConfig::orbit is set); the spec must
/// outlive the table. Not copyable or movable — workers share it by
/// pointer.
class OrbitTable {
 public:
  /// Runs consuming more rounds than this execute un-memoized (their
  /// columns would not pack into one word per source). Purely a hit-rate
  /// bound: symmetric specs that terminate do so in far fewer rounds.
  static constexpr int kMaxMemoRounds = 64;

  /// True iff the spec's per-run configuration carries the symmetry the
  /// canonicalizers understand (see the header comment). Ineligible specs
  /// take the identity path: no table, zero overhead.
  static bool eligible(const Experiment& spec);

  /// Requires eligible(spec); `spec` must outlive the table.
  explicit OrbitTable(const Experiment& spec);

  OrbitTable(const OrbitTable&) = delete;
  OrbitTable& operator=(const OrbitTable&) = delete;

  /// Loads the candidate (seed, wiring) into the probe: draws the crash
  /// schedule (pure in (spec, seed)), seeds the per-source replay engines,
  /// and stabilizes the wiring pointer. `assignment` may point into
  /// transient provider storage; it is copied when the policy demands.
  void prepare(OrbitProbe& probe, std::uint64_t seed,
               const PortAssignment* assignment) const;

  /// Probes the nonempty levels in ascending consumed-round order. On a
  /// hit, fills probe.outcome with the replicated outcome (the candidate's
  /// own crash schedule, the entry's outputs routed through the
  /// candidate's ranks) and returns true.
  bool lookup(OrbitProbe& probe);

  /// Records an executed candidate as its orbit's representative at its
  /// consumed-round level (no-op past kMaxMemoRounds; insert-if-absent
  /// under races). Always counts the run as executed — the
  /// hits() + reps() = runs invariant is what the tests pin.
  void insert(OrbitProbe& probe, const ProtocolOutcome& outcome,
              int consumed);

  /// Runs served by replication / runs executed as representatives.
  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t reps() const noexcept {
    return reps_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    bool terminated = false;
    int rounds = 0;
    std::vector<std::int64_t> outputs;  // canonical (rank) order
    std::vector<int> decision_round;    // canonical (rank) order
  };
  /// Mixes the canonical key words (splitmix-style avalanche per word).
  /// Lookups are on the sweep's critical path — an ordered map's pointer
  /// chase costs a cache miss per node, which at bench scale was most of
  /// the probe overhead; hashing finds the bucket in one jump.
  struct KeyHash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const {
      std::uint64_t h = 0x9e3779b97f4a7c15ull * (key.size() + 1);
      for (std::uint64_t w : key) {
        w += 0x9e3779b97f4a7c15ull;
        w = (w ^ (w >> 30)) * 0xbf58476d1ce4e5b9ull;
        w = (w ^ (w >> 27)) * 0x94d049bb133111ebull;
        h ^= (w ^ (w >> 31)) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      }
      return static_cast<std::size_t>(h);
    }
  };
  struct Level {
    /// Lock-free emptiness hint: lets lookups skip untouched levels
    /// without taking the lock. Updated under the exclusive lock.
    std::atomic<std::uint64_t> count{0};
    std::unordered_map<std::vector<std::uint64_t>, Entry, KeyHash> entries;
  };

  /// Extends every source's packed column to at least r bits.
  void ensure_bits(OrbitProbe& probe, int r) const;
  /// The r-bit prefix of party p's column (requires bits_drawn >= r).
  std::uint64_t column_at(const OrbitProbe& probe, int party, int r) const;
  /// Fills probe.key / probe.rank with the canonical form at level r,
  /// dispatching on the protocol's declared invariance and the model.
  void build_key(OrbitProbe& probe, int r) const;
  void canonicalize_multiset(OrbitProbe& probe, int r) const;  // blackboard
  void canonicalize_wiring(OrbitProbe& probe, int r) const;    // msg passing
  /// The literal form (tag 3): identity ranks, raw by-index bytes.
  void canonicalize_identity(OrbitProbe& probe, int r) const;

  const Experiment* spec_;
  int n_ = 0;
  int sources_ = 0;
  /// Whether the protocol declared knowledge_order_invariant(): gates the
  /// group quotient vs the literal form (safe-group detection above).
  bool equivariant_ = false;
  std::array<Level, kMaxMemoRounds + 1> levels_;
  std::shared_mutex mutex_;
  std::atomic<int> max_level_{-1};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> reps_{0};
};

}  // namespace rsb
