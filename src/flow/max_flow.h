// Exact single-commodity max-flow over a FlowNetwork.
//
// One engine: push-relabel with highest-label node selection, the gap
// heuristic (a height with no nodes disconnects everything above it from
// the sink side) and periodic global relabeling (exact residual BFS
// distances). It is serial and runs to completion, so the residual state it
// leaves behind is a valid maximum flow. Parallelism lives one level up, in
// the CutBattery's concurrent terminal pairs (flow/cut_battery.h).
//
// Capacities are doubles; residual amounts at or below
// FlowNetwork::tolerance() count as zero everywhere, so the solver, cut
// extraction, and verification agree on saturation.
#pragma once

#include "flow/flow_network.h"

namespace tb::flow {

/// Work counters, mostly for tests, CSV telemetry and the micro benches.
struct MaxFlowStats {
  long pushes = 0;           ///< applied push operations
  long relabels = 0;         ///< single-node relabels
  long global_relabels = 0;  ///< residual-BFS height rebuilds
  long gap_jumps = 0;        ///< gap-heuristic activations

  /// Field-wise accumulate; callers sum per-solve stats in a fixed index
  /// order so aggregates stay deterministic at any thread count.
  void add(const MaxFlowStats& o) {
    pushes += o.pushes;
    relabels += o.relabels;
    global_relabels += o.global_relabels;
    gap_jumps += o.gap_jumps;
  }
};

/// Threading of the cut battery (its only reader). `threads` follows the
/// one intra-solve rule (ThreadPool::resolve, as
/// mcf::SolveOptions::solver_threads): 0 = the shared pool, 1 = fully
/// serial, N > 1 = a process-shared dedicated pool of N workers. Threads
/// never change results — only which workers do the work.
struct FlowOptions {
  int threads = 0;
};

/// Maximum s-t flow value. Mutates `net`'s residual state in place; the
/// resulting flow is read back per arc via FlowNetwork::flow(). Throws
/// std::invalid_argument on bad terminals.
double max_flow(FlowNetwork& net, int s, int t, MaxFlowStats* stats = nullptr);

}  // namespace tb::flow
