// Flow decomposition: turn a per-arc flow (e.g. the feasible flow a solver
// certifies) into explicit paths. Test support for routing_test, which
// uses it to check that solver and routing flows split into the expected
// paths; no library code needs it, so it is compiled into that test only.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace tb::mcf {

struct FlowPath {
  std::vector<int> arcs;  ///< source-to-sink arc sequence
  double amount = 0.0;
};

/// Decompose a single-commodity arc flow from `src` into sink-terminated
/// paths (standard greedy path stripping; cycles are cancelled silently).
/// `arc_flow` is indexed by arc id and is consumed (copied internally).
/// `tol` ignores residual flow below it.
std::vector<FlowPath> decompose_flow(const Graph& g, int src,
                                     std::vector<double> arc_flow,
                                     double tol = 1e-9);

/// Demand-weighted mean path length (hops) of a decomposition.
double mean_path_length(const std::vector<FlowPath>& paths);

}  // namespace tb::mcf
