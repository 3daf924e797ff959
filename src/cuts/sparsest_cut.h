// Sparse-cut estimation (paper §II-B, Appendix C).
//
// The sparsity of a cut S w.r.t. a TM is the ratio of the capacity crossing
// the cut to the demand crossing it; every cut upper-bounds throughput.
// Computing the sparsest cut is NP-hard, so the paper runs a battery of
// heuristics and calls the best value found the "sparse cut":
//   * capped brute force (first 10,000 subsets),
//   * one-node cuts,
//   * two-node cuts,
//   * expanding (BFS-ball) cuts,
//   * an eigenvector sweep over the normalized-Laplacian Fiedler vector.
// Table II reports which estimator finds the winning cut; Fig 3 plots the
// winner against LP throughput.
//
// Incremental evaluation. The enumerating estimators (brute force, one-
// and two-node, expanding, eigenvector, and the exact bisection paths of
// bisection.h) walk their candidates with a private cut tracker
// (cut_tracker.h): flipping node v updates the crossing capacity and the
// crossing demand per direction in O(deg(v) + demands at v). cut_sparsity
// stays the only value that reaches a result: a candidate is skipped only
// when the bound below proves that cut_sparsity of it is not < the best so
// far, and every other candidate is priced with cut_sparsity and offered
// as before. Ties never replace the best (strict <), so values, sides,
// winners and bound tags are the bits a plain cut_sparsity loop returns.
//
// The bound. Let u = 2^-53, E the edge count and P the demand count, and
// C, D the exact real crossing capacity and demand of one direction.
//  * cut_sparsity sums at most E (resp. P) non-negative terms left to
//    right, so its C' >= C(1 - g_E) and D' <= D(1 + g_P), with
//    g_k = ku / (1 - ku) (Higham, recursive summation).
//  * Rounding is monotone and `best` is a double, so fl(C'/D') >= best iff
//    C'/D' >= best; a direction with D' = 0 contributes infinity.
//  * The tracker's sums satisfy |c - C| <= e_c and |d - D| <= e_d. Each
//    flip adds to e twice its true rounding bound: 2 g_deg times the
//    node's incident magnitude for the local delta, 2u times the new sum
//    for the update, plus DBL_MIN against an underflowed product. The
//    factor 2 covers the rounding of e's own arithmetic.
//  * A direction is cleared when, in floating point,
//    lo = c - e_c >= DBL_MIN and lo >= best * (d + e_d) * K, with
//    K = 1 + (E + P + 8) * 2^-52. Then C >= lo / (1 + u) and, as
//    lo >= DBL_MIN absorbs the products' underflow,
//    best * D * K (1 - u)^3 <= lo (1 + 2^-52). So C' >= best * D' whenever
//    K (1 - u)^3 (1 - g_E) >= (1 + g_P)(1 + u)(1 + 2^-52); to first order
//    K has (E + P + 10) u to spare, far above the second-order terms while
//    (E + P) u is small.
//  * A candidate is skipped only when both directions are cleared (and
//    never while best is infinite, or when a demand is negative or not
//    finite). Capacity-only pricing (bisection_capacity against
//    cut_capacity) uses the same test with d + e_d = 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/max_flow.h"
#include "graph/graph.h"
#include "tm/traffic_matrix.h"

namespace tb::cuts {

/// How a CutResult's value relates to the true optimum of its cut problem
/// (sparsest cut / bisection): `Exact` certifies equality (complete
/// enumeration, or a max-flow argument covering every candidate cut),
/// `Upper` certifies value >= optimum (every heuristic returns a genuine
/// cut, so its value still upper-bounds throughput).
enum class CutBound { Upper, Exact };

const char* to_string(CutBound b);

struct CutResult {
  double sparsity = 0.0;           ///< capacity / demand across the cut
  std::vector<std::uint8_t> side;  ///< 0/1 membership
  std::string method;
  CutBound bound = CutBound::Upper;
  /// Max-flow work the estimator spent (zero for pure heuristics), summed
  /// over its solves in index order — CSV telemetry, never result-bearing.
  flow::MaxFlowStats flow_stats;
};

/// Sparsity of one cut. Directed: min over both orientations of
/// (arc capacity crossing) / (demand crossing); infinity when no demand
/// crosses. `side` holds 0/1 per node. Every estimator's value is this
/// function's result on the cut it reports.
double cut_sparsity(const Graph& g, const TrafficMatrix& tm,
                    const std::vector<std::uint8_t>& side);

/// Exhaustive enumeration of the 2^(n-1) - 1 proper cuts, capped at
/// `max_cuts` of them (Appendix C caps at 10,000). Tagged CutBound::Exact
/// when 2^(n-1) - 1 <= max_cuts (the enumeration was complete),
/// CutBound::Upper otherwise.
CutResult sparsest_cut_brute_force(const Graph& g, const TrafficMatrix& tm,
                                   long max_cuts = 10'000);

CutResult sparsest_cut_one_node(const Graph& g, const TrafficMatrix& tm);
CutResult sparsest_cut_two_node(const Graph& g, const TrafficMatrix& tm);

/// BFS balls of every radius around every node.
CutResult sparsest_cut_expanding(const Graph& g, const TrafficMatrix& tm);

/// Sweep cuts over the Fiedler-vector node ordering. Offers no cut
/// (sparsity +inf, empty side) when some node has no positive-capacity arc,
/// where the normalized Laplacian is undefined.
CutResult sparsest_cut_eigenvector(const Graph& g, const TrafficMatrix& tm);

struct SparseCutSurvey {
  CutResult best;
  std::vector<std::pair<std::string, double>> per_method;  ///< method -> value
  std::vector<std::string> winners;  ///< methods matching the best value
  flow::MaxFlowStats flow_stats;     ///< max-flow work across all members
};

/// Run the full estimator battery — the Appendix C heuristics plus the
/// exact sampled s-t min cuts of exact_cuts.h ("st-mincut", `st_pairs`
/// terminal pairs drawn from `seed`) — and report the best cut. The best
/// result is tagged CutBound::Exact when any exact member certified the
/// optimum (complete brute force, or a single-pair TM) or its sparsity is
/// 0, below which no cut goes. `flow` configures
/// the exact members' cut-battery threading; it never changes the
/// survey's results, only how fast the flow solves run.
SparseCutSurvey best_sparse_cut(const Graph& g, const TrafficMatrix& tm,
                                long brute_force_cap = 10'000,
                                int st_pairs = 8, std::uint64_t seed = 1,
                                const flow::FlowOptions& flow = {});

}  // namespace tb::cuts
