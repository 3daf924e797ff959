// Residual-graph representation for exact max-flow / min-cut. The paper's
// cut-based throughput upper bounds (§II-B) need an exact s-t cut
// primitive; FlowNetwork is the state the solver in max_flow.h operates on.
//
// Arcs are created in reverse pairs — arc 2k and its reverse 2k+1 — so
// `arc ^ 1` is always the reverse arc, mirroring Graph's numbering. A
// network built with from_graph() therefore shares Graph's arc ids exactly
// (edge e -> arcs 2e and 2e+1, each with the edge's capacity, the paper's
// "uni-directional links" model). Pushing flow on an arc moves residual
// capacity onto its reverse; the net flow on arc a is max(0, cap(a) -
// res(a)), so opposite pushes cancel as they must on an undirected edge.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "topo/network.h"

namespace tb::flow {

class FlowNetwork {
 public:
  FlowNetwork() = default;
  /// Network with `n` nodes and no arcs.
  explicit FlowNetwork(int num_nodes) : num_nodes_(num_nodes) {}

  /// Mirror of `g`: same node ids, edge e's directed arcs as pair (2e,
  /// 2e+1), each with capacity edge_cap(e). Finalized and ready to solve.
  static FlowNetwork from_graph(const Graph& g);

  /// Switch-level residual network of `net`. Server-switch links have
  /// infinite capacity, so every finite s-t cut lives in the switch graph
  /// and the server attachment contributes nothing.
  static FlowNetwork from_network(const Network& net);

  /// Add the arc pair u->v (capacity `cap_uv`) and v->u (`cap_vu`).
  /// Returns the forward arc id (always even); the reverse is `id ^ 1`.
  /// A purely directed arc is the pair (cap_uv, 0). Invalidates the CSR.
  int add_arc_pair(int u, int v, double cap_uv, double cap_vu = 0.0);

  /// Build the CSR adjacency. Must be called after the last mutation and
  /// before solving. Idempotent.
  void finalize();
  bool finalized() const noexcept { return finalized_; }

  int num_nodes() const noexcept { return num_nodes_; }
  int num_arcs() const noexcept { return static_cast<int>(head_.size()); }

  int arc_from(int a) const { return tail_[static_cast<std::size_t>(a)]; }
  int arc_to(int a) const { return head_[static_cast<std::size_t>(a)]; }
  static int reverse_arc(int a) noexcept { return a ^ 1; }

  double capacity(int a) const { return cap_[static_cast<std::size_t>(a)]; }
  double residual(int a) const { return res_[static_cast<std::size_t>(a)]; }

  /// Net flow on arc a (0 when the arc only absorbed reverse pushes).
  double flow(int a) const {
    const double f = cap_[static_cast<std::size_t>(a)] -
                     res_[static_cast<std::size_t>(a)];
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

  /// Outgoing arc ids of node v (requires finalize()).
  std::span<const int> out_arcs(int v) const {
    const auto b = static_cast<std::size_t>(offset_[static_cast<std::size_t>(v)]);
    const auto e =
        static_cast<std::size_t>(offset_[static_cast<std::size_t>(v) + 1]);
    return {adj_.data() + b, e - b};
  }

  /// Largest arc capacity (0 on an arc-free network); tolerance scaling.
  double max_capacity() const noexcept { return max_cap_; }

  /// Absolute tolerance under which residual capacity counts as zero.
  /// Shared by every solver so flow values, cut extraction, and
  /// verification agree on what "saturated" means.
  double tolerance() const noexcept {
    return 1e-12 * (max_cap_ > 1.0 ? max_cap_ : 1.0);
  }

  /// Restore residual capacities to the original capacities (re-solve the
  /// same network for a different terminal pair without rebuilding).
  /// Reverts exactly the arcs touched since finalize()/the last reset —
  /// bitwise identical to the full `res_ = cap_` copy it replaces, since
  /// an untouched arc still holds its capacity.
  void reset() {
    if (!finalized_) {  // pre-CSR state: res_ is rebuilt by finalize()
      res_ = cap_;
      return;
    }
    for (const int a : touched_) {
      res_[static_cast<std::size_t>(a)] = cap_[static_cast<std::size_t>(a)];
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

  int num_nodes_ = 0;
  std::vector<int> tail_;
  std::vector<int> head_;
  std::vector<double> cap_;
  std::vector<double> res_;
  double max_cap_ = 0.0;
  // CSR: adj_ holds arc ids grouped by tail node.
  std::vector<int> offset_;
  std::vector<int> adj_;
  // Touched-arc tracking for reset(): dirty_ flags + insertion-ordered ids.
  std::vector<std::uint8_t> dirty_;
  std::vector<int> touched_;
  bool finalized_ = false;
};

}  // namespace tb::flow
