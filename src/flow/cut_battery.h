// The parallel exact-cut engine: batches of s-t terminal pairs solved
// concurrently. Each task solves on its own copy of the FlowNetwork's
// residuals over the one shared Graph (reset between the pairs of its
// block, so repeated solves are O(arcs pushed)), and the reduction to the
// best cut is ordered and index-deterministic. The contract, relied on by
// global_min_cut and the cuts/ estimators ported onto the battery:
//
//   solve(pairs)[i] is bitwise identical to a serial st_min_cut loop over
//   `pairs` on one reused network, for ANY thread configuration — every
//   solve starts from an exact capacity reset, so neither the block shape
//   nor the worker schedule can reach a result.
//
// The battery resolves FlowOptions::threads once (ThreadPool::resolve) for
// its pair blocks; each max-flow solve inside a block is serial, so the
// pair level is the only level of flow parallelism.
#pragma once

#include <utility>
#include <vector>

#include "flow/min_cut.h"
#include "graph/graph.h"

namespace tb::flow {

class CutBattery {
 public:
  /// Builds the prototype network once; `g` must outlive the battery.
  explicit CutBattery(const Graph& g, const FlowOptions& opts = {});

  /// Exact min cut for every terminal pair, in pair order.
  std::vector<StCut> solve(const std::vector<std::pair<int, int>>& pairs) const;

  /// Index of the best cut under the serial-loop selection rule: scan in
  /// order, a strictly smaller value wins, stop once the running best is
  /// at or below `tolerance` (a zero cut cannot be beaten). -1 when empty.
  static int best_index(const std::vector<StCut>& cuts, double tolerance);

  /// Saturation tolerance of the prototype network (for best_index).
  double tolerance() const noexcept { return proto_.tolerance(); }

 private:
  FlowOptions opts_;
  FlowNetwork proto_;
};

}  // namespace tb::flow
