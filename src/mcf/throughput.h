// Throughput of (network, TM) — the paper's core metric (§II-A): the
// maximum t such that T*t admits a feasible multicommodity flow.
//
// Two engines, selected by SolverKind:
//  * ExactLP      — the source-aggregated edge-flow LP solved by our
//                   revised simplex. Exact, but the dense simplex degrades
//                   steeply with LP size (sources x arcs flow variables).
//  * GargKonemann — (1-eps)-approximation with a certified dual gap;
//                   scales to thousands of switches.
// SolverKind::Auto (the default) picks ExactLP only when the instance is
// genuinely small — at most kExactMaxSwitches (36) switches AND
// sources*arcs at most kExactMaxLpSize (4096) — and GK otherwise.
// The dispatch lives in ThroughputEngine (mcf/engine.h), the one solve
// entry point; this header holds the shared types and the ExactLP kernel.
#pragma once

#include <string>

#include "tm/traffic_matrix.h"
#include "topo/network.h"

namespace tb::mcf {

enum class SolverKind { Auto, ExactLP, GargKonemann };

/// Auto dispatch: ExactLP only at or below this many switches...
inline constexpr int kExactMaxSwitches = 36;
/// ...and only if sources*arcs fits this.
inline constexpr long kExactMaxLpSize = 4096;

/// The GK certified-gap targets GkSolver honours, bounds included. The
/// engine rejects an epsilon outside [kMinEpsilon, kMaxEpsilon] for every
/// SolverKind, and the server, TOPOBENCH_EPS and topobench_cli accept
/// exactly this range.
inline constexpr double kMinEpsilon = 1e-4;
inline constexpr double kMaxEpsilon = 0.3;

/// kMinEpsilon <= eps <= kMaxEpsilon (false for NaN).
inline bool epsilon_in_range(double eps) noexcept {
  return eps >= kMinEpsilon && eps <= kMaxEpsilon;
}

/// Throws std::invalid_argument("<what> must be in [0.0001, 0.3]") unless
/// epsilon_in_range(eps).
void check_epsilon(double eps, const std::string& what);

struct SolveOptions {
  SolverKind kind = SolverKind::Auto;
  /// GK certified gap target, in [kMinEpsilon, kMaxEpsilon].
  double epsilon = 0.03;
  /// Intra-solve worker threads for GkSolver, resolved by
  /// ThreadPool::resolve: 0 runs on the process-shared pool
  /// (TOPOBENCH_THREADS), 1 is the serial solve, N > 1 a process-shared
  /// dedicated N-worker pool. GK uses the threads only on graphs above its
  /// measured size cutoff (mcf::gk_pool_pays); below it every setting runs
  /// the serial solve. By GK's determinism contract
  /// (garg_konemann.h) every setting produces bitwise identical results —
  /// the count only chooses which threads do the work. ExactLP ignores it:
  /// the simplex is serial. The experiment runner seeds it from
  /// TOPOBENCH_SOLVER_THREADS.
  int solver_threads = 0;
};

/// Per-solver work counters. The two engines do fundamentally different
/// work — simplex pivots and GK phases are not comparable — so each gets
/// its own field instead of one overloaded "iterations" number; fields of
/// the engine that did not run stay 0.
struct SolverStats {
  long pivots = 0;      ///< revised-simplex pivots (ExactLP)
  long phases = 0;      ///< GK multiplicative-weights phases
  long dijkstras = 0;   ///< GK shortest-path-tree computations
  bool warm_start = false;  ///< a warm solve was requested (warm_solve)
};

struct ThroughputResult {
  double throughput = 0.0;   ///< certified achievable concurrent-flow value
  double upper_bound = 0.0;  ///< certified upper bound (== throughput if exact)
  std::string solver;        ///< "exact-lp", "garg-konemann", "disconnected"
  SolverStats stats;         ///< work counters of the engine that ran
};

/// Auto-dispatch guard: does an LP with `num_sources` x `num_arcs` flow
/// variables fit within `max_lp_size`? The product is formed in 64 bits —
/// `long` x `int` arithmetic overflows on ILP32 targets for large counts,
/// which would silently select ExactLP on huge instances.
inline bool lp_size_within(long num_sources, int num_arcs,
                           long max_lp_size) noexcept {
  return static_cast<long long>(num_sources) *
             static_cast<long long>(num_arcs) <=
         static_cast<long long>(max_lp_size);
}

/// The ExactLP kernel on a bare graph: the source-aggregated edge-flow LP,
/// solved from a feasible spanning-tree basis the kernel builds itself
/// (throughput.cpp), so the result depends only on the instance. Under a
/// scenario, ThroughputEngine passes its surviving graph and perturbed TM.
ThroughputResult throughput_exact_lp(const Graph& g, const TrafficMatrix& tm);

/// Volumetric upper bound from §II-B: total capacity divided by total
/// demand-weighted shortest-path length. Any feasible throughput is <= this.
double volumetric_upper_bound(const Graph& g, const TrafficMatrix& tm);

/// Theorem 2 lower bound: any hose TM is feasible at >= T_A2A / 2. The
/// caller supplies T_A2A (throughput of the all-to-all TM on `net`).
inline double theorem2_lower_bound(double a2a_throughput) {
  return a2a_throughput / 2.0;
}

}  // namespace tb::mcf
