// Port assignments for the anonymous message-passing clique K_n.
//
// Each party privately labels its n−1 incident channels with distinct port
// numbers 1..n−1 (Section 2.1). There is no correlation between the two
// endpoints' labels of one edge; assignments are worst-case (adversarial).
//
// This module provides the assignment algebra: validation, standard
// generators, exhaustive enumeration for tiny n, automorphism checks, and
// the paper's Lemma 4.3 adversarial construction that keeps every
// consistency class a multiple of g = gcd(n_1,...,n_k).
//
// Layout: two flat n·(n−1) arrays, row i at offset i·(n−1) — the neighbor
// rows and the reciprocal-port rows derived from them — so a round
// operator reads both a party's senders and their reciprocal tags in O(n),
// and a random-per-run wiring is redrawn into the same storage every run.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "randomness/config.hpp"
#include "util/rng.hpp"

namespace rsb {

class PortAssignment {
 public:
  /// neighbor_of[i][p-1] = the party at the other end of party i's port p.
  /// Each row must be a permutation of [0..n-1] ∖ {i}; throws
  /// ValidationError otherwise.
  explicit PortAssignment(std::vector<std::vector<int>> neighbor_of);

  int num_parties() const noexcept { return num_parties_; }

  /// π_i(p): the party connected to party i by the edge with port number p
  /// at i (1-based p, matching the paper).
  int neighbor(int party, int port) const;

  /// The port at which `party` sees `neighbor` (1-based); throws if they are
  /// the same party. A scan of the party's row: the reference that the
  /// reciprocal rows are tested against.
  int port_to(int party, int neighbor) const;

  /// Party i's neighbor row in port order: neighbors(i)[p−1] =
  /// neighbor(i, p). Unchecked; the span borrows this assignment.
  std::span<const int> neighbors(int party) const noexcept {
    return {neighbor_.data() + row_offset(party), row_size()};
  }

  /// Party i's reciprocal-port row: reciprocal(i)[p−1] =
  /// port_to(neighbor(i, p), i), the port at which i's port-p neighbor
  /// sees i. It is both the tag Eq. (2)'s port-tagged reading attaches to
  /// what i receives on port p, and the port on which a message i sends
  /// on port p arrives. Unchecked; the span borrows this assignment.
  std::span<const int> reciprocal(int party) const noexcept {
    return {reciprocal_.data() + row_offset(party), row_size()};
  }

  /// The canonical "cyclic" assignment: port p of party i leads to
  /// (i + p) mod n.
  static PortAssignment cyclic(int num_parties);

  /// Uniformly random rows.
  static PortAssignment random(int num_parties, Xoshiro256StarStar& rng);

  /// Redraws this assignment in place as random(num_parties, rng) would —
  /// the same Fisher–Yates draws — reusing its storage and `scratch` (the
  /// rows' inverse table), so a sweep that draws one wiring per run
  /// allocates nothing once its first wiring is drawn. A drawn row is a
  /// permutation by construction, so the rows are linked unchecked.
  void redraw_random(int num_parties, Xoshiro256StarStar& rng,
                     std::vector<int>& scratch);

  /// Advances `rng` by exactly the draws random(num_parties, rng) would
  /// consume, without materializing the assignment. Lets a parallel worker
  /// skip ahead to the wiring of run i while staying draw-for-draw
  /// identical to a serial sweep that generated runs 0..i-1 first.
  static void discard_random(int num_parties, Xoshiro256StarStar& rng);

  /// The Lemma 4.3 adversarial assignment for block size g | n. With parties
  /// written i = m·g + r (block m, residue r) and ports j = q·g + s, port j
  /// of party i leads to party ((r+s) mod g) + m·g + q·g (mod n).
  ///
  /// Note: the paper prints the formula with ceilings (⌈i/g⌉); taken
  /// literally that is not a valid assignment (see DESIGN.md). The floor
  /// (block) form implemented here is valid and admits the shift
  /// f(m·g+r) = m·g + ((r+1) mod g) as a port-preserving automorphism,
  /// which is what the proof of Lemma 4.3 uses.
  static PortAssignment adversarial(int num_parties, int block_size);

  /// Adversarial assignment aligned with a configuration whose loads are all
  /// divisible by g = gcd(loads) and whose parties are source-contiguous
  /// (e.g. built by SourceConfiguration::from_loads). Every block of g
  /// consecutive parties is then single-source, as Lemma 4.3 requires.
  static PortAssignment adversarial_for(const SourceConfiguration& config);

  /// All assignments for n parties — ((n−1)!)^n rows; practical for n ≤ 4.
  static std::vector<PortAssignment> enumerate_all(int num_parties);

  /// Visits all assignments without materializing them (still ((n−1)!)^n).
  static void for_each(int num_parties,
                       const std::function<void(const PortAssignment&)>& visit);

  /// True iff the party bijection f preserves ports: whenever i's port p
  /// leads to u, f(i)'s port p leads to f(u).
  bool is_automorphism(const std::vector<int>& f) const;

  friend bool operator==(const PortAssignment&, const PortAssignment&) = default;

  std::string to_string() const;

 private:
  PortAssignment() = default;

  std::size_t row_size() const noexcept {
    return num_parties_ > 0 ? static_cast<std::size_t>(num_parties_ - 1) : 0;
  }
  std::size_t row_offset(int party) const noexcept {
    return static_cast<std::size_t>(party) * row_size();
  }

  /// Checks every neighbor row: a permutation of [0..n−1] ∖ {i}, else
  /// ValidationError naming the bad port. `seen` is scratch.
  void check_rows(std::vector<int>& seen) const;

  /// Derives the reciprocal rows from neighbor rows that are permutations
  /// (checked, or drawn so), with `inverse` as the rows' inverse table.
  void link(std::vector<int>& inverse);

  int num_parties_ = 0;
  std::vector<int> neighbor_;    // n·(n−1): row i at i·(n−1), port order
  std::vector<int> reciprocal_;  // n·(n−1): the same layout
};

}  // namespace rsb
