// Exact single-commodity max-flow over a FlowNetwork.
//
// Three engines:
//  * HighestLabel — push-relabel with highest-label node selection, the
//    gap heuristic (a height with no nodes disconnects everything above it
//    from the sink side) and periodic global relabeling (exact residual
//    BFS distances). The serial production engine; runs to completion, so
//    the residual state it leaves behind is a valid maximum flow.
//  * ParallelDischarge — round-synchronous push-relabel for large
//    instances: each round freezes heights, discharges every active node
//    into per-arc delta buffers over fixed vertex blocks, then applies
//    the deltas and relabels in a serial block-ordered merge. Bitwise
//    deterministic for any thread count (including 1), because every
//    cross-block effect goes through the ordered merge; the thread count
//    only decides which worker runs a block.
//  * Dinic — BFS level graph + DFS blocking flow with current-arc
//    pointers. Deliberately simple; the tests cross-check the push-relabel
//    engines against it on randomized instances.
//
// FlowAlgo::Auto picks ParallelDischarge above an instance-size cutoff and
// HighestLabel below it. The predicate looks only at the instance (arc
// count), never at the thread configuration, so results stay byte-identical
// across TOPOBENCH_SOLVER_THREADS settings — the flow-level half of the
// PR-5 determinism contract. The threshold is grounded by the
// BM_StMaxFlow* micro benches (bench/micro_solvers.cpp): below a few
// thousand arcs the round structure's extra passes cost more than the
// blocks can win back.
//
// Capacities are doubles; residual amounts at or below
// FlowNetwork::tolerance() count as zero everywhere, so solvers, cut
// extraction, and verification agree on saturation.
#pragma once

#include "flow/flow_network.h"

namespace tb::flow {

enum class FlowAlgo { HighestLabel, Dinic, ParallelDischarge, Auto };

/// Work counters, mostly for tests, CSV telemetry and the micro benches.
struct MaxFlowStats {
  long pushes = 0;            ///< push-relabel: applied push operations
  long relabels = 0;          ///< push-relabel: single-node relabels
  long global_relabels = 0;   ///< push-relabel: residual-BFS height rebuilds
  long gap_jumps = 0;         ///< HighestLabel: gap-heuristic activations
  long augmenting_paths = 0;  ///< Dinic: blocking-flow augmentations

  /// Field-wise accumulate; callers sum per-solve stats in a fixed index
  /// order so aggregates stay deterministic at any thread count.
  void add(const MaxFlowStats& o) {
    pushes += o.pushes;
    relabels += o.relabels;
    global_relabels += o.global_relabels;
    gap_jumps += o.gap_jumps;
    augmenting_paths += o.augmenting_paths;
  }
};

/// Engine and threading configuration of the flow engines and the cut
/// battery. `threads` follows the one intra-solve rule
/// (ThreadPool::resolve, as mcf::SolveOptions::solver_threads): 0 = the
/// shared pool, 1 = fully serial, N > 1 = a process-shared dedicated pool
/// of N workers. Threads never change results — only which workers do the
/// work.
struct FlowOptions {
  FlowAlgo algo = FlowAlgo::Auto;
  int threads = 0;
};

/// Instance-only cutoff of FlowAlgo::Auto: true when `net` is large enough
/// that the parallel-discharge engine is worth its per-round overhead.
bool parallel_discharge_cutoff(const FlowNetwork& net);

/// The engine FlowAlgo::Auto resolves to for `net` (identity otherwise).
FlowAlgo resolve_flow_algo(const FlowNetwork& net, FlowAlgo algo);

/// Maximum s-t flow value under `opts` (FlowAlgo::Auto dispatch plus the
/// worker pool of the parallel-discharge engine). Mutates `net`'s residual
/// state in place; the resulting flow is read back per arc via
/// FlowNetwork::flow(). The flow value and residual state are bitwise
/// identical for any `threads`. Throws std::invalid_argument on bad
/// terminals or an unfinalized network.
double max_flow(FlowNetwork& net, int s, int t, const FlowOptions& opts,
                MaxFlowStats* stats = nullptr);

}  // namespace tb::flow
