// Sparse communication topologies: adjacency-driven port wirings.
//
// Every workload before this layer ran on the clique — each party owns
// n−1 ports, one per other party — which makes a broadcast round Θ(n²)
// messages however little the algorithm actually needs to say. The
// locality literature the paper leans on (Barenboim–Elkin–Pettie–
// Schneider, "The Locality of Distributed Symmetry Breaking") lives on
// *sparse* graphs: MIS, (Δ+1)-coloring and ruling sets are interesting
// precisely when a party talks only to its graph neighbors. A Topology is
// the value type that carries such a graph into the simulator: a CSR
// adjacency (sorted neighbor lists) plus the canonical port numbering —
// party p's port k (1-based) leads to its k-th smallest neighbor — so the
// wiring is a pure function of the edge set and per-round delivery costs
// O(edges), not O(n²).
//
// Generators are deterministic in (kind, n, seed): equal parameters build
// byte-identical adjacency on every host (pinned by tests/graph_test.cpp),
// so a topology referenced by name in a canonical spec (service layer)
// reconstructs identically on any peer. The randomized families (random
// d-regular, Erdős–Rényi, Barabási–Albert preferential attachment) draw
// from a private Xoshiro stream seeded by the caller; the structured
// families (clique, ring, path, complete binary tree) ignore the seed.
//
// TopologyRegistry is the generator vocabulary (util/registry.hpp): spec
// strings name a generator with integer arguments — "ring",
// "d-regular(3)", "power-law(2)" — and describe() feeds the CLI listings.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/registry.hpp"

namespace rsb::graph {

enum class TopologyKind {
  kClique,      // all-to-all: the historical wiring, normalized away upstream
  kRing,        // cycle 0–1–…–(n−1)–0
  kPath,        // path 0–1–…–(n−1)
  kTree,        // complete binary tree on heap indices (i ~ (i−1)/2)
  kDRegular,    // random d-regular (configuration model, seeded)
  kErdosRenyi,  // G(n, p) with p = d/(n−1) for a target expected degree d
  kPowerLaw,    // Barabási–Albert preferential attachment, m edges per node
};

std::string to_string(TopologyKind kind);

/// An undirected simple graph on the parties, stored as CSR adjacency
/// with each neighbor list sorted ascending. Ports are the canonical
/// 1-based numbering over that order: neighbor(p, k) is p's k-th smallest
/// neighbor, and port_of(p, q) inverts it by binary search. Immutable
/// after construction; share via shared_ptr (Experiment does).
class Topology {
 public:
  // --- deterministic generators ----------------------------------------
  static Topology clique(int n);        // n >= 1
  static Topology ring(int n);          // n >= 3
  static Topology path(int n);          // n >= 2
  static Topology tree(int n);          // n >= 2
  /// Random d-regular via the configuration model: pair up n·d stubs,
  /// resampling until the pairing is simple. Requires 1 <= d < n and
  /// n·d even.
  static Topology d_regular(int n, int degree, std::uint64_t seed);
  /// G(n, p) with p = expected_degree / (n−1). Requires n >= 2 and
  /// 0 <= expected_degree <= n−1. Isolated vertices are possible and
  /// legal (a degree-0 party simply has no ports).
  static Topology erdos_renyi(int n, int expected_degree, std::uint64_t seed);
  /// Barabási–Albert: start from a clique on m+1 vertices, then attach
  /// each new vertex to m distinct existing vertices drawn
  /// degree-proportionally (repeated-endpoint sampling). Requires
  /// 1 <= m < n.
  static Topology power_law(int n, int edges_per_vertex, std::uint64_t seed);

  TopologyKind kind() const noexcept { return kind_; }
  /// The registry spec this topology answers to ("ring", "d-regular(3)").
  const std::string& name() const noexcept { return name_; }
  int num_parties() const noexcept { return num_parties_; }
  /// Undirected edge count.
  std::int64_t num_edges() const noexcept {
    return static_cast<std::int64_t>(adjacency_.size()) / 2;
  }
  int degree(int party) const;
  int max_degree() const noexcept { return max_degree_; }
  /// `party`'s neighbors, sorted ascending.
  std::span<const int> neighbors(int party) const;
  /// The other endpoint of `party`'s 1-based port (its port-th smallest
  /// neighbor). Throws on out-of-range ports.
  int neighbor(int party, int port) const;
  /// The 1-based port of `party` that leads to `to`; throws when the edge
  /// does not exist.
  int port_of(int party, int to) const;
  bool has_edge(int a, int b) const;

  /// True iff every pair of parties is adjacent — the wiring the clique
  /// PortAssignment machinery already provides, which is why upstream
  /// layers normalize clique topologies away entirely.
  bool is_clique() const noexcept;

  friend bool operator==(const Topology&, const Topology&) = default;

 private:
  Topology(TopologyKind kind, std::string name, int n,
           const std::vector<std::pair<int, int>>& edges);

  TopologyKind kind_ = TopologyKind::kClique;
  std::string name_;
  int num_parties_ = 0;
  int max_degree_ = 0;
  std::vector<std::int32_t> offsets_;  // CSR: n+1 entries
  std::vector<int> adjacency_;         // sorted per vertex, 2|E| entries
};

/// Generators by spec, built for a party count and a seed (structured
/// generators ignore it): clique, ring, path, tree, d-regular(d),
/// erdos-renyi(d), power-law(m).
using TopologyRegistry = Registry<Topology(int num_parties, std::uint64_t seed)>;

/// True iff the spec's generator draws from the seed (d-regular,
/// erdos-renyi, power-law) — the service layer uses this to decide
/// whether topology-seed is a live knob or normalizes away. A prefix
/// match, no parse: canonical_text() asks about specs that may be
/// malformed — for those the answer is "not randomized", and the real
/// error surfaces where make() resolves the spec.
bool is_randomized_topology(std::string_view spec);

/// Shorthand over the global registry; returns a shared immutable
/// instance (the form Experiment::with_topology stores).
std::shared_ptr<const Topology> make_topology(const std::string& spec,
                                              int num_parties,
                                              std::uint64_t seed);

}  // namespace rsb::graph

template <>
const rsb::graph::TopologyRegistry& rsb::graph::TopologyRegistry::global();
