#include "graph/topology.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsb::graph {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kClique:
      return "clique";
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kPath:
      return "path";
    case TopologyKind::kTree:
      return "tree";
    case TopologyKind::kDRegular:
      return "d-regular";
    case TopologyKind::kErdosRenyi:
      return "erdos-renyi";
    case TopologyKind::kPowerLaw:
      return "power-law";
  }
  return "?";
}

// ---------------------------------------------------------------- Topology

Topology::Topology(TopologyKind kind, std::string name, int n,
                   const std::vector<std::pair<int, int>>& edges)
    : kind_(kind), name_(std::move(name)), num_parties_(n) {
  if (n < 1) {
    throw InvalidArgument("Topology: num_parties must be >= 1, got " +
                          std::to_string(n));
  }
  std::vector<std::int32_t> degree(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [a, b] : edges) {
    if (a < 0 || a >= n || b < 0 || b >= n || a == b) {
      throw ValidationError("Topology: bad edge (" + std::to_string(a) + "," +
                            std::to_string(b) + ") for n=" + std::to_string(n));
    }
    ++degree[static_cast<std::size_t>(a) + 1];
    ++degree[static_cast<std::size_t>(b) + 1];
  }
  offsets_.resize(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + degree[v + 1];
  adjacency_.resize(static_cast<std::size_t>(offsets_[n]));
  std::vector<std::int32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [a, b] : edges) {
    adjacency_[static_cast<std::size_t>(cursor[a]++)] = b;
    adjacency_[static_cast<std::size_t>(cursor[b]++)] = a;
  }
  for (int v = 0; v < n; ++v) {
    const auto first = adjacency_.begin() + offsets_[v];
    const auto last = adjacency_.begin() + offsets_[v + 1];
    std::sort(first, last);
    if (std::adjacent_find(first, last) != last) {
      throw ValidationError("Topology: duplicate edge at vertex " +
                            std::to_string(v));
    }
    max_degree_ = std::max(max_degree_,
                           static_cast<int>(offsets_[v + 1] - offsets_[v]));
  }
}

int Topology::degree(int party) const {
  if (party < 0 || party >= num_parties_) {
    throw InvalidArgument("Topology::degree: party " + std::to_string(party) +
                          " out of range");
  }
  return static_cast<int>(offsets_[party + 1] - offsets_[party]);
}

std::span<const int> Topology::neighbors(int party) const {
  if (party < 0 || party >= num_parties_) {
    throw InvalidArgument("Topology::neighbors: party " +
                          std::to_string(party) + " out of range");
  }
  return std::span<const int>(adjacency_.data() + offsets_[party],
                              adjacency_.data() + offsets_[party + 1]);
}

int Topology::neighbor(int party, int port) const {
  const auto adj = neighbors(party);
  if (port < 1 || port > static_cast<int>(adj.size())) {
    throw InvalidArgument("Topology::neighbor: party " +
                          std::to_string(party) + " has no port " +
                          std::to_string(port) + " (degree " +
                          std::to_string(adj.size()) + ")");
  }
  return adj[static_cast<std::size_t>(port) - 1];
}

int Topology::port_of(int party, int to) const {
  const auto adj = neighbors(party);
  const auto it = std::lower_bound(adj.begin(), adj.end(), to);
  if (it == adj.end() || *it != to) {
    throw InvalidArgument("Topology::port_of: no edge " +
                          std::to_string(party) + "—" + std::to_string(to));
  }
  return static_cast<int>(it - adj.begin()) + 1;
}

bool Topology::has_edge(int a, int b) const {
  if (a < 0 || a >= num_parties_ || b < 0 || b >= num_parties_ || a == b) {
    return false;
  }
  const auto adj = neighbors(a);
  return std::binary_search(adj.begin(), adj.end(), b);
}

bool Topology::is_clique() const noexcept {
  return num_edges() ==
         static_cast<std::int64_t>(num_parties_) * (num_parties_ - 1) / 2;
}

// -------------------------------------------------------------- generators

Topology Topology::clique(int n) {
  if (n < 1) {
    throw InvalidArgument("Topology::clique: n must be >= 1, got " +
                          std::to_string(n));
  }
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) edges.emplace_back(a, b);
  }
  return Topology(TopologyKind::kClique, "clique", n, edges);
}

Topology Topology::ring(int n) {
  if (n < 3) {
    throw InvalidArgument("Topology::ring: n must be >= 3, got " +
                          std::to_string(n));
  }
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Topology(TopologyKind::kRing, "ring", n, edges);
}

Topology Topology::path(int n) {
  if (n < 2) {
    throw InvalidArgument("Topology::path: n must be >= 2, got " +
                          std::to_string(n));
  }
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (int v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Topology(TopologyKind::kPath, "path", n, edges);
}

Topology Topology::tree(int n) {
  if (n < 2) {
    throw InvalidArgument("Topology::tree: n must be >= 2, got " +
                          std::to_string(n));
  }
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (int v = 1; v < n; ++v) edges.emplace_back(v, (v - 1) / 2);
  return Topology(TopologyKind::kTree, "tree", n, edges);
}

Topology Topology::d_regular(int n, int degree, std::uint64_t seed) {
  if (degree < 1 || degree >= n) {
    throw InvalidArgument("Topology::d_regular: need 1 <= d < n, got d=" +
                          std::to_string(degree) + " n=" + std::to_string(n));
  }
  if ((static_cast<std::int64_t>(n) * degree) % 2 != 0) {
    throw InvalidArgument("Topology::d_regular: n*d must be even, got n=" +
                          std::to_string(n) + " d=" + std::to_string(degree));
  }
  const std::string name = registry_spec("d-regular", {degree});
  // Configuration model: n·d stubs (stub s belongs to vertex s/d), paired
  // by a Fisher–Yates shuffle and read off two at a time. A pairing with
  // a self-loop or repeated edge is discarded wholesale and resampled —
  // this keeps the conditional distribution uniform over simple d-regular
  // pairings, which per-edge patch-ups would not.
  Xoshiro256StarStar rng(derive_seed(seed, 0x5ce9));
  std::vector<int> stubs(static_cast<std::size_t>(n) * degree);
  constexpr int kMaxAttempts = 4096;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::iota(stubs.begin(), stubs.end(), 0);
    for (std::size_t i = stubs.size() - 1; i > 0; --i) {
      std::swap(stubs[i], stubs[rng.below(i + 1)]);
    }
    std::vector<std::pair<int, int>> edges;
    edges.reserve(stubs.size() / 2);
    bool simple = true;
    for (std::size_t i = 0; simple && i < stubs.size(); i += 2) {
      int a = stubs[i] / degree;
      int b = stubs[i + 1] / degree;
      if (a == b) {
        simple = false;
        break;
      }
      if (a > b) std::swap(a, b);
      edges.emplace_back(a, b);
    }
    if (!simple) continue;
    std::sort(edges.begin(), edges.end());
    if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) {
      continue;
    }
    return Topology(TopologyKind::kDRegular, name, n, edges);
  }
  throw ValidationError("Topology::d_regular: no simple pairing after " +
                        std::to_string(kMaxAttempts) + " attempts (n=" +
                        std::to_string(n) + ", d=" + std::to_string(degree) +
                        ")");
}

Topology Topology::erdos_renyi(int n, int expected_degree,
                               std::uint64_t seed) {
  if (n < 2) {
    throw InvalidArgument("Topology::erdos_renyi: n must be >= 2, got " +
                          std::to_string(n));
  }
  if (expected_degree < 0 || expected_degree > n - 1) {
    throw InvalidArgument(
        "Topology::erdos_renyi: need 0 <= expected_degree <= n-1, got " +
        std::to_string(expected_degree));
  }
  const std::string name = registry_spec("erdos-renyi", {expected_degree});
  const double p =
      static_cast<double>(expected_degree) / static_cast<double>(n - 1);
  Xoshiro256StarStar rng(derive_seed(seed, 0xe12d));
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.uniform01() < p) edges.emplace_back(a, b);
    }
  }
  return Topology(TopologyKind::kErdosRenyi, name, n, edges);
}

Topology Topology::power_law(int n, int edges_per_vertex, std::uint64_t seed) {
  const int m = edges_per_vertex;
  if (m < 1 || m >= n) {
    throw InvalidArgument("Topology::power_law: need 1 <= m < n, got m=" +
                          std::to_string(m) + " n=" + std::to_string(n));
  }
  const std::string name = registry_spec("power-law", {m});
  // Barabási–Albert with the endpoint-list trick: `endpoints` holds every
  // edge endpoint ever added, so a uniform draw from it is exactly a
  // degree-proportional draw. Seed graph: clique on the first m+1
  // vertices (every vertex has positive degree before attachment starts).
  Xoshiro256StarStar rng(derive_seed(seed, 0xba));
  std::vector<std::pair<int, int>> edges;
  std::vector<int> endpoints;
  for (int a = 0; a <= m; ++a) {
    for (int b = a + 1; b <= m; ++b) {
      edges.emplace_back(a, b);
      endpoints.push_back(a);
      endpoints.push_back(b);
    }
  }
  std::vector<int> chosen;
  for (int v = m + 1; v < n; ++v) {
    chosen.clear();
    while (static_cast<int>(chosen.size()) < m) {
      const int target =
          endpoints[static_cast<std::size_t>(rng.below(endpoints.size()))];
      if (std::find(chosen.begin(), chosen.end(), target) == chosen.end()) {
        chosen.push_back(target);
      }
    }
    for (const int target : chosen) {
      edges.emplace_back(target, v);
      endpoints.push_back(target);
      endpoints.push_back(v);
    }
  }
  return Topology(TopologyKind::kPowerLaw, name, n, edges);
}

// ---------------------------------------------------------------- registry

std::shared_ptr<const Topology> make_topology(const std::string& spec,
                                              int num_parties,
                                              std::uint64_t seed) {
  return std::make_shared<const Topology>(
      TopologyRegistry::global().make(spec, num_parties, seed));
}

bool is_randomized_topology(std::string_view spec) {
  const std::string_view name = spec.substr(0, spec.find('('));
  return name == "d-regular" || name == "erdos-renyi" || name == "power-law";
}

}  // namespace rsb::graph

template <>
const rsb::graph::TopologyRegistry& rsb::graph::TopologyRegistry::global() {
  using graph::Topology;
  using Args = const std::vector<int>&;
  static const auto* registry = new Registry(
      "topology",
      {
          {"clique", 0, "all-to-all wiring (the default; normalized away)",
           [](Args, int n, std::uint64_t) { return Topology::clique(n); }},
          {"ring", 0, "cycle 0–1–…–(n−1)–0",
           [](Args, int n, std::uint64_t) { return Topology::ring(n); }},
          {"path", 0, "path 0–1–…–(n−1)",
           [](Args, int n, std::uint64_t) { return Topology::path(n); }},
          {"tree", 0, "complete binary tree on heap indices",
           [](Args, int n, std::uint64_t) { return Topology::tree(n); }},
          {"d-regular", 1,
           "random d-regular graph (configuration model, seeded); "
           "argument is d",
           [](Args args, int n, std::uint64_t seed) {
             return Topology::d_regular(n, args[0], seed);
           }},
          {"erdos-renyi", 1,
           "G(n, p) with p = d/(n−1) (seeded); argument is the expected "
           "degree d",
           [](Args args, int n, std::uint64_t seed) {
             return Topology::erdos_renyi(n, args[0], seed);
           }},
          {"power-law", 1,
           "Barabási–Albert preferential attachment (seeded); argument is "
           "edges per new vertex m",
           [](Args args, int n, std::uint64_t seed) {
             return Topology::power_law(n, args[0], seed);
           }},
      });
  return *registry;
}
