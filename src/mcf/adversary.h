// Adversarial worst-case TM search (paper §II-C): the longest-matching
// heuristic finds a *near*-worst matching; this module promotes the
// examples-only refinement loop into the engine as a maximizing scenario.
// A deterministic seeded local search over host matchings — starting from
// the longest-matching candidate and seeded random restarts, proposing
// pair swaps and keeping throughput decreases of more than 1e-9 relative —
// reports the worst matching TM found and its throughput. Every candidate
// is warm-solved on one ThroughputEngine session, so the search builds one
// engine, not one per candidate: GK seeds its arc lengths from the
// previous solve when the commodity set matches, and ExactLP starts every
// solve from its spanning-tree basis.
//
// Determinism: the proposal stream is Rng(mix_seed(seed, restart)); ties
// never move — a candidate within 1e-9 relative of the incumbent (ExactLP
// rounding noise on an equal optimum) is a tie; aggregation orders
// demands by (src, dst). Same network + options => bitwise identical
// result.
#pragma once

#include <cstdint>

#include "mcf/throughput.h"
#include "tm/traffic_matrix.h"
#include "topo/network.h"

namespace tb::mcf {

struct WorstCaseOptions {
  /// Swap proposals per restart (hill-climb length).
  int iterations = 64;
  /// Seeded random-restart count after the longest-matching candidate.
  int restarts = 2;
  std::uint64_t seed = 1;
  /// Solver configuration for every candidate evaluation.
  SolveOptions solve;
};

struct WorstCaseResult {
  TrafficMatrix tm;          ///< worst matching TM found (switch-aggregated)
  double throughput = 0.0;   ///< its throughput under opts.solve
  double initial = 0.0;      ///< throughput of the longest-matching candidate
  long solves = 0;           ///< candidate evaluations performed
  long improvements = 0;     ///< accepted decreases (beyond 1e-9 relative)
};

/// Search the space of host matchings (each server slot sends 1 unit to a
/// permuted slot; intra-switch pairs drop out on aggregation) for a
/// minimum-throughput TM. Throws std::invalid_argument on negative
/// iterations/restarts or a network without servers.
WorstCaseResult worst_case_matching(const Network& net,
                                    const WorstCaseOptions& opts = {});

}  // namespace tb::mcf
