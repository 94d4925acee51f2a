// Graph tasks: symmetry-breaking problems judged against an instance
// adjacency.
//
// The census-predicate tasks in tasks/tasks.hpp capture everything a
// *symmetric* output complex can say — but MIS, (Δ+1)-coloring and ruling
// sets (Barenboim–Elkin–Pettie–Schneider's canonical locality family) are
// valid or not depending on WHERE the values sit relative to the edges of
// a concrete graph. These factories build SymmetricTask instances whose
// census predicate is the trivially-true (or alphabet-range) part and
// whose Refinement closure holds a shared_ptr to the Topology and checks
// the positional conditions: no edge inside the chosen set, endpoints
// colored differently, every out-vertex dominated within distance 2.
//
// Crash semantics follow the t-resilient tasks: a crashed party's value is
// ignored, edges incident to it impose no constraint, and domination may
// only route through surviving parties — the honest judgement of what the
// survivors achieved on the induced surviving subgraph.
//
// GraphTaskRegistry is TaskRegistry's counterpart whose factories take the
// topology: a graph task cannot exist without an instance.
// Experiment::with_task falls back to this registry for names TaskRegistry
// does not know, and refuses with a named reason when no topology is set.
#pragma once

#include <memory>
#include <string>

#include "graph/topology.hpp"
#include "tasks/tasks.hpp"
#include "util/registry.hpp"

namespace rsb::graph {

/// Maximal independent set over `topology`: alphabet {0, 1}; the alive 1s
/// form an independent set (no alive–alive edge with both endpoints 1)
/// that is maximal over survivors (every alive 0 has an alive 1-neighbor).
SymmetricTask mis_task(std::shared_ptr<const Topology> topology);

/// Proper (Δ+1)-coloring: alphabet {0, ..., max_degree}; the endpoints of
/// every alive–alive edge receive distinct colors.
SymmetricTask coloring_task(std::shared_ptr<const Topology> topology);

/// (2,2)-ruling set: alphabet {0, 1}; the alive 1s are independent and
/// every alive 0 reaches an alive 1 within distance <= 2 through alive
/// intermediate parties.
SymmetricTask ruling_set_2_task(std::shared_ptr<const Topology> topology);

/// Graph tasks by spec, bound to an instance: mis, coloring, 2-ruling-set.
using GraphTaskRegistry =
    Registry<SymmetricTask(std::shared_ptr<const Topology> topology)>;

/// Shorthand over the global registry.
SymmetricTask make_graph_task(const std::string& spec,
                              std::shared_ptr<const Topology> topology);

}  // namespace rsb::graph

template <>
const rsb::graph::GraphTaskRegistry& rsb::graph::GraphTaskRegistry::global();
