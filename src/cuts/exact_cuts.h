// Exact max-flow/min-cut powered cut estimators (src/flow/). Unlike the
// Appendix C heuristics, these carry certificates: every returned cut is a
// real cut (so its sparsity upper-bounds throughput), and the single-pair
// case is provably the sparsest cut.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cuts/sparsest_cut.h"
#include "flow/max_flow.h"
#include "graph/graph.h"
#include "tm/traffic_matrix.h"

namespace tb::cuts {

/// Distinct unordered (src, dst) pairs with positive demand, ascending.
/// Shared by every terminal-pair sampler so they agree on identity and
/// order (part of the determinism contract).
std::vector<std::pair<int, int>> distinct_demand_pairs(
    const TrafficMatrix& tm);

/// At most `max_pairs` of `pairs`, drawn without replacement from `seed`;
/// ascending order is preserved. Identity when `pairs` already fits.
std::vector<std::pair<int, int>> sample_demand_pairs(
    std::vector<std::pair<int, int>> pairs, int max_pairs,
    std::uint64_t seed);

/// Exact s-t min cuts over the TM's demand pairs: all distinct unordered
/// pairs when there are at most `max_pairs`, otherwise a seeded sample.
/// Each min-cut partition is evaluated as a sparsity cut and the best is
/// returned (method "st-mincut"). Tagged CutBound::Exact when the TM's
/// demands connect a single unordered pair — every cut with crossing
/// demand then separates that pair and carries the same demand, so the
/// min cut minimizes sparsity — and CutBound::Upper otherwise.
/// The pairs are solved concurrently on a flow::CutBattery configured by
/// `flow`, with the sparsity evaluation and best-cut reduction in pair
/// order — bitwise identical to the serial loop at any thread count.
CutResult sparsest_cut_st_mincut(const Graph& g, const TrafficMatrix& tm,
                                 int max_pairs = 8, std::uint64_t seed = 1,
                                 const flow::FlowOptions& flow = {});

}  // namespace tb::cuts
