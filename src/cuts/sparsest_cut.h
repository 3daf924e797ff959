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
/// crosses. `side` holds 0/1 per node.
double cut_sparsity(const Graph& g, const TrafficMatrix& tm,
                    const std::vector<std::uint8_t>& side);

/// Exhaustive enumeration capped at `max_cuts` subsets (Appendix C caps at
/// 10,000). Tagged CutBound::Exact when 2^(n-1) - 1 <= max_cuts (the
/// enumeration was complete), CutBound::Upper otherwise.
CutResult sparsest_cut_brute_force(const Graph& g, const TrafficMatrix& tm,
                                   long max_cuts = 10'000);

CutResult sparsest_cut_one_node(const Graph& g, const TrafficMatrix& tm);
CutResult sparsest_cut_two_node(const Graph& g, const TrafficMatrix& tm);

/// BFS balls of every radius around every node.
CutResult sparsest_cut_expanding(const Graph& g, const TrafficMatrix& tm);

/// Sweep cuts over the Fiedler-vector node ordering.
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
/// optimum (complete brute force, or a single-pair TM). `flow` configures
/// the exact members' cut-battery threading; it never changes the
/// survey's results, only how fast the flow solves run.
SparseCutSurvey best_sparse_cut(const Graph& g, const TrafficMatrix& tm,
                                long brute_force_cap = 10'000,
                                int st_pairs = 8, std::uint64_t seed = 1,
                                const flow::FlowOptions& flow = {});

}  // namespace tb::cuts
