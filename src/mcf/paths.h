// Path utilities: Yen's k-shortest paths, path-restricted throughput LP and
// the subflow-counting throughput estimator of Yuan et al. [48].
//
// Fig 15 replicates [48]'s fat-tree-vs-Jellyfish comparison: flows are split
// into subflows over a fixed path set (we use k shortest paths per
// commodity as the LLSKR-style path set; see "Substitutions" in
// docs/ARCHITECTURE.md). Throughput is then measured two ways:
//  * counting estimate — each subflow's rate is the inverse of the maximum
//    number of subflows sharing a link on its path ([48]'s method);
//  * exact path-restricted LP — maximize the minimum flow subject to link
//    capacities, flow split arbitrarily over the same path set.
// The gap between the two is Comparison 1 vs Comparison 2 of Fig 15.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "tm/traffic_matrix.h"

namespace tb::mcf {

/// A path is the sequence of arc ids from source to destination.
using Path = std::vector<int>;

/// Yen's algorithm, hop-count metric, loopless paths. Returns up to k paths
/// in nondecreasing length order (fewer if the graph has fewer).
std::vector<Path> k_shortest_paths(const Graph& g, int src, int dst, int k);

struct PathSet {
  Demand demand;            ///< the commodity
  std::vector<Path> paths;  ///< allowed paths for it
};

/// Build per-commodity path sets with k shortest paths each.
std::vector<PathSet> build_path_sets(const Graph& g, const TrafficMatrix& tm,
                                     int k);

/// Exact max-concurrent-flow restricted to the given path sets (simplex).
/// Returns the throughput scaling t.
double path_restricted_throughput(const Graph& g,
                                  const std::vector<PathSet>& sets);

struct CountingEstimate {
  double average = 0.0;          ///< mean per-flow throughput ([48] metric)
  double minimum = 0.0;          ///< min per-flow throughput
  std::vector<double> per_flow;  ///< one entry per commodity
};

/// [48]-style estimate: demand split evenly across a commodity's paths;
/// each subflow's rate = 1 / (max subflow count over its links).
CountingEstimate counting_throughput(const Graph& g,
                                     const std::vector<PathSet>& sets);

}  // namespace tb::mcf
