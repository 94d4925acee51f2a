#include "graph/graph_task.hpp"

#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace rsb::graph {

namespace {

bool alive_at(std::span<const int> crash_round, int party) {
  // Empty crash_round = fault-free run; the outcome encoding marks a
  // crashed party with its crash round (>= 0).
  return crash_round.empty() || crash_round[static_cast<std::size_t>(party)] < 0;
}

/// No alive–alive edge has both endpoints selected (value 1). Scans each
/// vertex's higher-numbered neighbors so every edge is checked once.
bool independent(const Topology& topo, std::span<const int> values,
                 std::span<const int> crash_round) {
  for (int v = 0; v < topo.num_parties(); ++v) {
    if (values[static_cast<std::size_t>(v)] != 1 || !alive_at(crash_round, v)) {
      continue;
    }
    for (const int u : topo.neighbors(v)) {
      if (u > v && values[static_cast<std::size_t>(u)] == 1 &&
          alive_at(crash_round, u)) {
        return false;
      }
    }
  }
  return true;
}

std::shared_ptr<const Topology> require(std::shared_ptr<const Topology> topo,
                                        const char* what) {
  if (topo == nullptr) {
    throw InvalidArgument(std::string(what) + ": topology must be non-null");
  }
  return topo;
}

}  // namespace

SymmetricTask mis_task(std::shared_ptr<const Topology> topology) {
  auto topo = require(std::move(topology), "mis_task");
  const int n = topo->num_parties();
  return SymmetricTask(
             "mis@" + topo->name(), n, {0, 1},
             [](const std::vector<int>&) { return true; })
      .with_refinement([topo](std::span<const int> values,
                              std::span<const int> crash_round) {
        if (!independent(*topo, values, crash_round)) return false;
        // Maximality over survivors: an alive 0 must see an alive
        // 1-neighbor (a 0 whose only 1-neighbors crashed is a violation —
        // the survivors' set is not maximal on the surviving subgraph).
        for (int v = 0; v < topo->num_parties(); ++v) {
          if (values[static_cast<std::size_t>(v)] != 0 ||
              !alive_at(crash_round, v)) {
            continue;
          }
          bool dominated = false;
          for (const int u : topo->neighbors(v)) {
            if (values[static_cast<std::size_t>(u)] == 1 &&
                alive_at(crash_round, u)) {
              dominated = true;
              break;
            }
          }
          if (!dominated) return false;
        }
        return true;
      });
}

SymmetricTask coloring_task(std::shared_ptr<const Topology> topology) {
  auto topo = require(std::move(topology), "coloring_task");
  const int n = topo->num_parties();
  std::vector<int> palette(static_cast<std::size_t>(topo->max_degree()) + 1);
  std::iota(palette.begin(), palette.end(), 0);
  return SymmetricTask(
             "coloring@" + topo->name(), n, std::move(palette),
             [](const std::vector<int>&) { return true; })
      .with_refinement([topo](std::span<const int> values,
                              std::span<const int> crash_round) {
        for (int v = 0; v < topo->num_parties(); ++v) {
          if (!alive_at(crash_round, v)) continue;
          for (const int u : topo->neighbors(v)) {
            if (u > v && alive_at(crash_round, u) &&
                values[static_cast<std::size_t>(u)] ==
                    values[static_cast<std::size_t>(v)]) {
              return false;
            }
          }
        }
        return true;
      });
}

SymmetricTask ruling_set_2_task(std::shared_ptr<const Topology> topology) {
  auto topo = require(std::move(topology), "ruling_set_2_task");
  const int n = topo->num_parties();
  return SymmetricTask(
             "2-ruling-set@" + topo->name(), n, {0, 1},
             [](const std::vector<int>&) { return true; })
      .with_refinement([topo](std::span<const int> values,
                              std::span<const int> crash_round) {
        if (!independent(*topo, values, crash_round)) return false;
        // Domination at distance <= 2, routed through alive parties only:
        // crashed intermediates carry no path on the surviving subgraph.
        for (int v = 0; v < topo->num_parties(); ++v) {
          if (values[static_cast<std::size_t>(v)] != 0 ||
              !alive_at(crash_round, v)) {
            continue;
          }
          bool dominated = false;
          for (const int u : topo->neighbors(v)) {
            if (!alive_at(crash_round, u)) continue;
            if (values[static_cast<std::size_t>(u)] == 1) {
              dominated = true;
              break;
            }
            for (const int w : topo->neighbors(u)) {
              if (w != v && values[static_cast<std::size_t>(w)] == 1 &&
                  alive_at(crash_round, w)) {
                dominated = true;
                break;
              }
            }
            if (dominated) break;
          }
          if (!dominated) return false;
        }
        return true;
      });
}

// ---------------------------------------------------------------- registry

SymmetricTask make_graph_task(const std::string& spec,
                              std::shared_ptr<const Topology> topology) {
  return GraphTaskRegistry::global().make(spec, std::move(topology));
}

}  // namespace rsb::graph

template <>
const rsb::graph::GraphTaskRegistry& rsb::graph::GraphTaskRegistry::global() {
  using Args = const std::vector<int>&;
  using Instance = std::shared_ptr<const graph::Topology>;
  static const auto* registry = new Registry(
      "graph-task",
      {
          {"mis", 0,
           "maximal independent set over the instance adjacency "
           "(independence + maximality over survivors)",
           [](Args, Instance topo) { return graph::mis_task(std::move(topo)); }},
          {"coloring", 0,
           "proper (Δ+1)-coloring: alive–alive edge endpoints differ",
           [](Args, Instance topo) {
             return graph::coloring_task(std::move(topo));
           }},
          {"2-ruling-set", 0,
           "(2,2)-ruling set: independent 1s dominating every alive 0 "
           "within distance 2",
           [](Args, Instance topo) {
             return graph::ruling_set_2_task(std::move(topo));
           }},
      });
  return *registry;
}
