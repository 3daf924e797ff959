// Relative throughput (paper §IV): to compare networks built from
// different equipment, a network's throughput is normalized by that of a
// uniform-random graph built with *precisely the same equipment* — same
// nodes, same per-node link counts, same server placement — under the same
// traffic matrix. Each data point averages several random-graph samples
// and carries a 95% confidence interval, as in the paper.
#pragma once

#include <cstdint>
#include <string>

#include "cuts/sparsest_cut.h"
#include "mcf/throughput.h"
#include "tm/traffic_matrix.h"
#include "topo/network.h"
#include "util/stats.h"

namespace tb {

struct RelativeOptions {
  int random_trials = 3;          ///< random-graph samples per data point
  std::uint64_t seed = 42;        ///< base seed for the samples
  mcf::SolveOptions solve;        ///< forwarded to the throughput solver
};

struct RelativeResult {
  double topo_throughput = 0.0;    ///< throughput of the network itself
  Summary random_throughput;       ///< over the same-equipment random graphs
  double relative = 0.0;           ///< topo / mean(random)
  double relative_ci95 = 0.0;      ///< CI propagated from the random trials
  mcf::SolverStats topo_stats;     ///< work counters of the topology's solve
};

/// Throughput of `net` under `tm`, normalized by same-equipment random
/// graphs evaluated under the *same* TM (endpoints map one-to-one).
/// Throws std::invalid_argument if `opts.random_trials < 1` and
/// std::runtime_error if the random graphs achieve zero throughput.
RelativeResult relative_throughput(const Network& net, const TrafficMatrix& tm,
                                   const RelativeOptions& opts = {});

// --- cut-based throughput upper bounds -----------------------------------
// The paper's central comparison (Fig 3, Table II) is measured throughput
// against the best cut bound; with the exact flow/ subsystem the bound is
// certified, so every evaluated cell can carry a throughput-vs-cut gap.

struct CutBoundOptions {
  long brute_force_cap = 10'000; ///< subset cap for the enumeration member
                                 ///< (matches best_sparse_cut, so sweeps
                                 ///< certify the same instances exact)
  int st_pairs = 8;              ///< terminal pairs for the exact s-t cuts
  bool include_bisection = true; ///< also offer the balanced-cut estimate
  std::uint64_t seed = 1;        ///< sampling stream (the runner derives a
                                 ///< per-cell seed; see exp/runner.h)
  int solver_threads = 0;        ///< flow::FlowOptions::threads for the exact
                                 ///< members (0 = shared pool, 1 = serial,
                                 ///< N = dedicated pool); never changes the
                                 ///< bound, only its wall clock
};

struct CutBoundResult {
  double bound = 0.0;    ///< lowest cut sparsity found: throughput <= bound
  std::string method;    ///< winning estimator ("st-mincut", "bisection", ...)
  cuts::CutBound kind = cuts::CutBound::Upper;  ///< certificate of `bound`
  flow::MaxFlowStats flow_stats;  ///< max-flow work across all estimators
};

/// Best (lowest) cut-based throughput upper bound for (g, tm): the full
/// sparse-cut battery of best_sparse_cut — exact sampled s-t min cuts
/// included — plus, optionally, the TM-relative bisection. Deterministic
/// for a fixed seed. Under a failure scenario the runner passes the
/// engine's surviving graph and perturbed TM (mcf/engine.h).
CutBoundResult cut_upper_bound(const Graph& g, const TrafficMatrix& tm,
                               const CutBoundOptions& opts = {});

}  // namespace tb
