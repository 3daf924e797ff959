// Exact s-t min cuts over the switch graph, extracted from a max flow and
// verified against it. By max-flow/min-cut duality the source-side
// partition found by residual BFS is a minimum cut whose capacity equals
// the flow value; st_min_cut checks that identity numerically and throws
// if it fails, so callers can treat the result as certified.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/max_flow.h"
#include "graph/graph.h"

namespace tb::flow {

struct StCut {
  double value = 0.0;         ///< max-flow value == verified cut capacity
  double cut_capacity = 0.0;  ///< capacity of cut_edges (== value, checked)
  std::vector<std::uint8_t> source_side;  ///< 1 = reachable from s in residual
  std::vector<int> cut_edges;             ///< Graph edge ids crossing the cut
  MaxFlowStats stats;
};

/// Exact minimum s-t cut of `g` (each edge carries its capacity in both
/// directions, the paper's link model). Throws std::invalid_argument on
/// bad terminals and std::logic_error if the extracted cut's capacity
/// disagrees with the flow value (the verification contract).
StCut st_min_cut(const Graph& g, int s, int t);

/// Same, on a prebuilt FlowNetwork of the graph — reset and solved in
/// place, so callers cutting many terminal pairs of one graph skip the
/// per-pair network construction.
StCut st_min_cut(FlowNetwork& net, int s, int t);

/// Global minimum cut: the smallest s-t cut over all terminal pairs,
/// computed as min over t != 0 of st_min_cut(0, t) (every cut separates
/// node 0 from something). The n-1 terminal pairs are solved concurrently
/// on the CutBattery and reduced in index order, so the returned cut
/// (stats included) is bitwise identical to a serial loop over t. Requires
/// at least two nodes.
StCut global_min_cut(const Graph& g, const FlowOptions& opts);

}  // namespace tb::flow
