// Kernighan-Lin balanced bipartitioning, used by the bisection-bandwidth
// estimator: the paper defines bisection bandwidth as the capacity of the
// worst cut dividing the network into two equal halves, which is NP-hard,
// so beyond brute-force sizes we minimize the cut with KL refinement over
// several random starts.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace tb {

struct BipartitionResult {
  std::vector<std::uint8_t> side;  ///< 0/1 per node, sides sized n/2 (±1)
  double cut_capacity = 0.0;       ///< total capacity of edges crossing
};

/// One KL refinement pass from the given starting assignment (modified in
/// place); returns the final cut capacity. A round picks the unlocked pair
/// (a on side 0, b on side 1) of highest gain g_a + g_b - 2 w(a, b), first
/// in (a, b) order on ties. Each g_b is computed once per round and a's
/// weights w(a, .) come from one scan of a's arcs, so a round costs
/// O(n^2 + arcs) and sums every gain in the same order as a per-pair scan.
double kernighan_lin_refine(const Graph& g, std::vector<std::uint8_t>& side,
                            int max_passes = 16);

/// Best balanced bipartition over `restarts` random starts + KL refinement.
BipartitionResult min_bisection(const Graph& g, int restarts = 8,
                                std::uint64_t seed = 1);

/// Capacity crossing the given 0/1 node assignment.
double cut_capacity(const Graph& g, const std::vector<std::uint8_t>& side);

}  // namespace tb
