// Residual state for exact max-flow / min-cut over a borrowed, finalized
// Graph. The paper's cut-based throughput upper bounds (§II-B) need an
// exact s-t cut primitive; FlowNetwork is the state the solver in
// max_flow.h operates on.
//
// The arcs are Graph's own: edge e is arcs 2e and 2e+1, each with the
// edge's capacity (the paper's "uni-directional links" model), and
// `arc ^ 1` is the reverse arc. Adjacency and heads come from
// Graph::out_arcs / Graph::out_heads; the network stores only one residual
// amount per arc plus the bookkeeping that lets reset() revert a solve.
// Pushing flow on an arc moves residual capacity onto its reverse; the net
// flow on arc a is max(0, cap(a) - res(a)), so opposite pushes cancel as
// they must on an undirected edge.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace tb::flow {

class FlowNetwork {
 public:
  /// Residual network of `g` at full capacity. `g` is borrowed: it must be
  /// finalized (std::invalid_argument otherwise), outlive the network, and
  /// not change while the network is in use.
  explicit FlowNetwork(const Graph& g);
  explicit FlowNetwork(Graph&&) = delete;  // would borrow a temporary

  const Graph& graph() const noexcept { return *g_; }
  int num_nodes() const noexcept { return g_->num_nodes(); }
  int num_arcs() const noexcept { return g_->num_arcs(); }

  double capacity(int a) const { return g_->arc_cap(a); }
  double residual(int a) const { return res_[static_cast<std::size_t>(a)]; }

  /// Net flow on arc a (0 when the arc only absorbed reverse pushes).
  double flow(int a) const {
    const double f = capacity(a) - residual(a);
    return f > 0.0 ? f : 0.0;
  }

  /// Move `delta` units of residual capacity from arc a to its reverse.
  /// Records both arcs as touched so reset() reverts only what a solve
  /// actually moved (repeated s-t solves on one network are O(arcs pushed),
  /// not O(arcs)).
  void push(int a, double delta) {
    touch(a);
    touch(a ^ 1);
    res_[static_cast<std::size_t>(a)] -= delta;
    res_[static_cast<std::size_t>(a ^ 1)] += delta;
  }

  /// Absolute tolerance under which residual capacity counts as zero:
  /// 1e-12 times the largest capacity (at least 1). Shared by every solver
  /// so flow values, cut extraction, and verification agree on what
  /// "saturated" means.
  double tolerance() const noexcept { return tol_; }

  /// Restore residual capacities to the original capacities (re-solve the
  /// same network for a different terminal pair without rebuilding).
  /// Reverts exactly the arcs touched since construction or the last reset;
  /// an untouched arc still holds its capacity.
  void reset() {
    for (const int a : touched_) {
      res_[static_cast<std::size_t>(a)] = capacity(a);
      dirty_[static_cast<std::size_t>(a)] = 0;
    }
    touched_.clear();
  }

 private:
  void touch(int a) {
    if (!dirty_[static_cast<std::size_t>(a)]) {
      dirty_[static_cast<std::size_t>(a)] = 1;
      touched_.push_back(a);
    }
  }

  const Graph* g_;
  std::vector<double> res_;
  double tol_;
  // Touched-arc tracking for reset(): dirty_ flags + insertion-ordered ids.
  std::vector<std::uint8_t> dirty_;
  std::vector<int> touched_;
};

}  // namespace tb::flow
