#include "flow/min_cut.h"

#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "flow/cut_battery.h"

namespace tb::flow {
namespace {

/// Nodes reachable from s through residual capacity > tol.
std::vector<std::uint8_t> residual_source_side(const FlowNetwork& net, int s) {
  const Graph& g = net.graph();
  std::vector<std::uint8_t> side(static_cast<std::size_t>(g.num_nodes()), 0);
  side[static_cast<std::size_t>(s)] = 1;
  std::vector<int> queue{s};
  const double tol = net.tolerance();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const std::span<const int> arcs = g.out_arcs(queue[i]);
    const std::span<const int> heads = g.out_heads(queue[i]);
    for (std::size_t j = 0; j < arcs.size(); ++j) {
      const int v = heads[j];
      if (!side[static_cast<std::size_t>(v)] && net.residual(arcs[j]) > tol) {
        side[static_cast<std::size_t>(v)] = 1;
        queue.push_back(v);
      }
    }
  }
  return side;
}

StCut extract_cut(const FlowNetwork& net, int s, double value,
                  MaxFlowStats stats) {
  const Graph& g = net.graph();
  StCut cut;
  cut.value = value;
  cut.stats = stats;
  cut.source_side = residual_source_side(net, s);
  // Every crossing edge contributes the capacity of its source-to-sink-side
  // arc, which for the symmetric link model is the edge capacity.
  for (int e = 0; e < g.num_edges(); ++e) {
    if (cut.source_side[static_cast<std::size_t>(g.edge_u(e))] !=
        cut.source_side[static_cast<std::size_t>(g.edge_v(e))]) {
      cut.cut_edges.push_back(e);
      cut.cut_capacity += g.edge_cap(e);
    }
  }
  // Strong duality check: the residual-BFS cut must be saturated exactly at
  // the flow value. A mismatch means the solver left an augmenting path or
  // lost flow, so fail loudly rather than report an uncertified bound.
  const double scale = cut.cut_capacity > 1.0 ? cut.cut_capacity : 1.0;
  if (std::abs(cut.cut_capacity - value) > 1e-6 * scale) {
    throw std::logic_error("st_min_cut: cut capacity " +
                           std::to_string(cut.cut_capacity) +
                           " does not certify flow value " +
                           std::to_string(value));
  }
  return cut;
}

}  // namespace

StCut st_min_cut(const Graph& g, int s, int t) {
  FlowNetwork net(g);
  return st_min_cut(net, s, t);
}

StCut st_min_cut(FlowNetwork& net, int s, int t) {
  net.reset();
  MaxFlowStats stats;
  const double value = max_flow(net, s, t, &stats);
  return extract_cut(net, s, value, stats);
}

StCut global_min_cut(const Graph& g, const FlowOptions& opts) {
  if (g.num_nodes() < 2) {
    throw std::invalid_argument("global_min_cut: need at least two nodes");
  }
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(g.num_nodes()) - 1);
  for (int t = 1; t < g.num_nodes(); ++t) pairs.emplace_back(0, t);
  const CutBattery battery(g, opts);
  std::vector<StCut> cuts = battery.solve(pairs);
  const int best = CutBattery::best_index(cuts, battery.tolerance());
  return std::move(cuts[static_cast<std::size_t>(best)]);
}

}  // namespace tb::flow
