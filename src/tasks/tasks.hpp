// Input-free symmetry-breaking tasks.
//
// Such a task is defined solely by a symmetric output complex O
// (Section 3.1): vertices (i, v) with v an output value, facets the legal
// global outputs, and stability under permutation of the names. For a
// symmetric complex, membership of a facet depends only on the *multiset* of
// output values, so a task is captured by a predicate on value counts.
//
// Leader election O_LE is the predicate "value 1 appears exactly once, all
// other values are 0"; the m-leader generalization (the paper's challenge in
// Section 1.2) replaces 1 by m.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace rsb {

using OutputComplex = ChromaticComplex<int>;

class SymmetricTask {
 public:
  /// `admits` receives the count of each alphabet value in a candidate
  /// output vector (counts[a] = #parties outputting alphabet[a]) and decides
  /// whether the vector is a legal global output. The induced output complex
  /// is symmetric by construction.
  SymmetricTask(std::string name, int num_parties, std::vector<int> alphabet,
                std::function<bool(const std::vector<int>&)> admits);

  /// Positional admission predicate for tasks whose validity is NOT a pure
  /// function of the value census — graph tasks (src/graph/graph_task.hpp)
  /// need the per-party values to check outputs against an instance
  /// adjacency (MIS independence, coloring properness, ...). `values` has
  /// one entry per party; `crash_round` is either empty (fault-free: judge
  /// every party) or has one entry per party in the outcome's encoding —
  /// entry >= 0 means the party crashed in that round and its value must
  /// be ignored. Consulted AFTER the census predicate accepts, by every
  /// admits_* entry point below; partition_solves and admits_counts remain
  /// census-only (they have no value vector to refine over).
  using Refinement = std::function<bool(std::span<const int> values,
                                        std::span<const int> crash_round)>;

  /// Attaches a refinement; fluent. A task without one (every pre-graph
  /// task) behaves exactly as before.
  SymmetricTask&& with_refinement(Refinement refine) &&;
  bool has_refinement() const noexcept { return refine_ != nullptr; }

  /// O_LE: exactly one party outputs 1, the rest output 0. Requires n ≥ 1.
  static SymmetricTask leader_election(int num_parties);

  /// Exactly m parties output 1, the rest output 0. Requires 0 ≤ m ≤ n.
  static SymmetricTask m_leader_election(int num_parties, int num_leaders);

  /// Weak symmetry breaking: not all parties output the same value
  /// (binary alphabet). Defined for n ≥ 2.
  static SymmetricTask weak_symmetry_breaking(int num_parties);

  /// Exact output census: value v must appear exactly counts[v] times.
  static SymmetricTask exact_census(int num_parties,
                                    const std::map<int, int>& census);

  // --- crash-resilient variants (judged over survivors) -----------------
  //
  // Under a crash-stop fault plan (sim/fault.hpp) the success question is
  // the t-resilient one: did the SURVIVING parties produce a legal output?
  // These variants encode that question as predicates on the survivor
  // census — they admit any census whose total is at least n − t (at most
  // t parties missing) and whose surviving values satisfy the task. With
  // t = 0 they coincide with the strict task on every full output vector.
  // Evaluate them with admits_surviving; RunStats does so automatically
  // for crashed runs.

  /// t-resilient leader election: exactly one surviving party outputs 1,
  /// every other survivor outputs 0, and at most t parties are missing.
  static SymmetricTask resilient_leader_election(int num_parties,
                                                 int max_crashes);

  /// t-resilient m-leader election: exactly m surviving leaders.
  static SymmetricTask resilient_m_leader_election(int num_parties,
                                                   int num_leaders,
                                                   int max_crashes);

  /// t-resilient two-leader election (the paper's Section 1.2 challenge,
  /// crash-tolerant): shorthand for m = 2.
  static SymmetricTask resilient_two_leader(int num_parties, int max_crashes);

  /// Matching census over {-1 bystander, 0 unmatched, 1 matched}
  /// (CreateMatchingAgent's output alphabet): the number of matched
  /// parties must be even — the census-level necessary condition for a
  /// pairing (pair integrity itself is not visible to a value census).
  static SymmetricTask matching(int num_parties);

  /// t-resilient matching census: at most t parties missing, and the
  /// matched-survivor count must be even unless a crashed party could be
  /// the missing partner (i.e. an odd count is admitted only when at
  /// least one party crashed).
  static SymmetricTask resilient_matching(int num_parties, int max_crashes);

  const std::string& name() const noexcept { return name_; }
  int num_parties() const noexcept { return num_parties_; }
  const std::vector<int>& alphabet() const noexcept { return alphabet_; }

  /// Is the value vector (one value per party) a legal global output?
  bool admits_vector(const std::vector<int>& value_per_party) const;

  /// Crash-aware admission: judges only the parties with alive[i] true —
  /// their values are counted and fed to the predicate; crashed parties'
  /// entries are ignored entirely. The predicate sees a census totalling
  /// the survivor count (resilient tasks are written for exactly that;
  /// strict tasks like leader_election simply reject partial censuses,
  /// which is the honest answer for a task that is not crash-tolerant).
  /// `alive` must have one entry per party.
  bool admits_surviving(const std::vector<int>& value_per_party,
                        const std::vector<bool>& alive) const;

  /// Is the count vector (aligned with alphabet()) admissible?
  bool admits_counts(const std::vector<int>& counts) const;

  /// Zero-copy admission straight off a ProtocolOutcome's outputs (the
  /// engine's int64 values; narrowed per party exactly as the historical
  /// conversion did). Same verdicts as admits_vector over the narrowed
  /// vector, without materializing it — RunStats::record judges every
  /// terminated run through this.
  bool admits_outputs(std::span<const std::int64_t> outputs) const;

  /// Crash-aware zero-copy admission: party i is judged iff
  /// crash_round[i] < 0 (the outcome's crash-schedule encoding; crashed
  /// parties' values are ignored entirely). Same verdicts as
  /// admits_surviving over the materialized values/alive pair.
  bool admits_surviving_outputs(std::span<const std::int64_t> outputs,
                                std::span<const int> crash_round) const;

  /// The explicit output complex O: one facet per admissible value vector.
  /// |alphabet|^n enumeration — for small n only.
  OutputComplex output_complex() const;

  /// π(O) = ∪_τ π(τ) (Figure 3 for leader election).
  OutputComplex projected_output_complex() const;

  /// The core combinatorial question behind Definition 3.4: can a facet
  /// whose consistency classes have the given sizes solve this task? True
  /// iff some assignment of one alphabet value per class yields an
  /// admissible count vector. (Parties in one consistency class have equal
  /// knowledge, hence — by name-independence — equal outputs.)
  bool partition_solves(const std::vector<int>& class_sizes) const;

  /// All admissible count vectors (aligned with alphabet()).
  std::vector<std::vector<int>> admissible_count_vectors() const;

 private:
  bool partition_solves_rec(const std::vector<int>& class_sizes,
                            std::size_t next_class,
                            std::vector<int>& counts) const;

  /// The one census behind every admits_* entry point over a value
  /// vector: counts the judged parties' values — every party's for an
  /// empty `crash_round`, else those with crash_round[i] < 0 — each
  /// narrowed to int; an off-alphabet value rejects, then the predicate
  /// and any refinement decide.
  template <typename Value>
  bool admits_census(std::span<const Value> values,
                     std::span<const int> crash_round) const;

  std::string name_;
  int num_parties_;
  std::vector<int> alphabet_;
  std::function<bool(const std::vector<int>&)> admits_;
  Refinement refine_;
};

}  // namespace rsb
