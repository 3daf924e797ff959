// Bisection bandwidth (paper §II-B): the capacity of the worst-case cut
// dividing the network into two equal halves. NP-hard, so:
//  * n <= `exact_max`: exhaustive enumeration of balanced subsets,
//    minimizing TM-relative sparsity directly (CutBound::Exact); each step
//    sets or unsets one node of the private cut tracker, and a subset is
//    priced with cut_sparsity (cut_capacity) unless the tracker proves it
//    cannot beat the best so far (the bound is in sparsest_cut.h);
//  * larger n: Kernighan-Lin capacity minimization over random restarts,
//    sharpened by exact s-t min cuts — up to `st_pairs` sampled demand
//    pairs are cut exactly (src/flow/), rebalanced into bisections, and
//    KL-refined as extra candidates — reported as sparsity against the TM
//    (the units the paper compares against throughput), CutBound::Upper.
#pragma once

#include <cstdint>

#include "cuts/sparsest_cut.h"
#include "flow/max_flow.h"
#include "graph/graph.h"
#include "tm/traffic_matrix.h"

namespace tb::cuts {

/// TM-relative bisection: min sparsity over balanced (n/2, n/2 +-1) cuts.
/// The st-seeded candidates run on the flow::CutBattery configured by
/// `flow` (rebalance + KL refinement parallelized per pair, merged in pair
/// order) — same result at any thread count.
CutResult bisection_sparsity(const Graph& g, const TrafficMatrix& tm,
                             int exact_max = 18, int kl_restarts = 8,
                             std::uint64_t seed = 1, int st_pairs = 4,
                             const flow::FlowOptions& flow = {});

/// Raw bisection bandwidth in capacity units (no TM): min capacity over
/// balanced cuts.
double bisection_capacity(const Graph& g, int exact_max = 18,
                          int kl_restarts = 8, std::uint64_t seed = 1);

}  // namespace tb::cuts
