#include "decompose.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tb::mcf {

std::vector<FlowPath> decompose_flow(const Graph& g, int src,
                                     std::vector<double> arc_flow,
                                     double tol) {
  assert(g.finalized());
  if (static_cast<int>(arc_flow.size()) != g.num_arcs()) {
    throw std::invalid_argument("decompose_flow: arc_flow size mismatch");
  }
  std::vector<FlowPath> paths;
  const auto n = static_cast<std::size_t>(g.num_nodes());

  for (;;) {
    // Walk greedily from src along positive-flow arcs until a node with no
    // positive out-flow (a sink of the flow) or a revisit (a cycle).
    std::vector<int> walk;
    std::vector<int> visited_at(n, -1);
    int v = src;
    visited_at[static_cast<std::size_t>(v)] = 0;
    double bottleneck = 0.0;
    for (;;) {
      int next_arc = -1;
      double best = tol;
      for (const int a : g.out_arcs(v)) {
        if (arc_flow[static_cast<std::size_t>(a)] > best) {
          best = arc_flow[static_cast<std::size_t>(a)];
          next_arc = a;
        }
      }
      if (next_arc < 0) break;  // sink reached
      walk.push_back(next_arc);
      bottleneck = walk.size() == 1
                       ? arc_flow[static_cast<std::size_t>(next_arc)]
                       : std::min(bottleneck,
                                  arc_flow[static_cast<std::size_t>(next_arc)]);
      v = g.arc_to(next_arc);
      const int seen = visited_at[static_cast<std::size_t>(v)];
      if (seen >= 0) {
        // Cycle: cancel it and restart the walk.
        double cyc = arc_flow[static_cast<std::size_t>(walk[static_cast<std::size_t>(seen)])];
        for (std::size_t i = static_cast<std::size_t>(seen); i < walk.size(); ++i) {
          cyc = std::min(cyc, arc_flow[static_cast<std::size_t>(walk[i])]);
        }
        for (std::size_t i = static_cast<std::size_t>(seen); i < walk.size(); ++i) {
          arc_flow[static_cast<std::size_t>(walk[i])] -= cyc;
        }
        walk.clear();
        break;
      }
      visited_at[static_cast<std::size_t>(v)] =
          static_cast<int>(walk.size());
    }
    if (walk.empty()) {
      // Either a cycle was cancelled (retry) or src has no out-flow (done).
      bool any = false;
      for (const int a : g.out_arcs(src)) {
        if (arc_flow[static_cast<std::size_t>(a)] > tol) {
          any = true;
          break;
        }
      }
      if (!any) break;
      continue;
    }
    for (const int a : walk) arc_flow[static_cast<std::size_t>(a)] -= bottleneck;
    paths.push_back({std::move(walk), bottleneck});
    if (paths.size() > 10'000'000) {
      throw std::runtime_error("decompose_flow: runaway decomposition");
    }
  }
  return paths;
}

double mean_path_length(const std::vector<FlowPath>& paths) {
  double vol = 0.0;
  double weighted = 0.0;
  for (const FlowPath& p : paths) {
    vol += p.amount;
    weighted += p.amount * static_cast<double>(p.arcs.size());
  }
  return vol > 0.0 ? weighted / vol : 0.0;
}

}  // namespace tb::mcf
