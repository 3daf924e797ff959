// Capacitated undirected graph with a CSR arc representation.
//
// Model (paper §II-A): switches are graph nodes; each undirected edge (u,v)
// of capacity c contributes two directed arcs u->v and v->u, each with its
// own capacity c ("uni-directional links"). Flow solvers operate on arcs;
// topology generators and cut heuristics operate on edges.
//
// Arcs are numbered so that edge e yields arcs 2e (u->v) and 2e+1 (v->u);
// `arc ^ 1` is therefore always the reverse arc.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tb {

class Graph {
 public:
  Graph() = default;
  /// Graph with `n` nodes and no edges.
  explicit Graph(int n) : num_nodes_(n) {}

  /// Add an undirected edge u-v with capacity `cap` in each direction.
  /// Self loops and non-finite or non-positive capacities are rejected
  /// (std::invalid_argument); parallel edges are allowed (multigraph).
  /// Returns the edge id. Invalidates the CSR until finalize().
  int add_edge(int u, int v, double cap = 1.0);

  /// Build the CSR adjacency. Must be called after the last mutation and
  /// before any adjacency query. Idempotent.
  void finalize();

  bool finalized() const noexcept { return finalized_; }

  int num_nodes() const noexcept { return num_nodes_; }
  int num_edges() const noexcept { return static_cast<int>(edge_u_.size()); }
  int num_arcs() const noexcept { return 2 * num_edges(); }

  int edge_u(int e) const { return edge_u_[static_cast<std::size_t>(e)]; }
  int edge_v(int e) const { return edge_v_[static_cast<std::size_t>(e)]; }
  double edge_cap(int e) const { return cap_[static_cast<std::size_t>(e)]; }

  /// Arc endpoints: arc 2e runs edge_u(e) -> edge_v(e); arc 2e+1 the reverse.
  int arc_from(int a) const { return (a & 1) ? edge_v(a >> 1) : edge_u(a >> 1); }
  int arc_to(int a) const { return (a & 1) ? edge_u(a >> 1) : edge_v(a >> 1); }
  double arc_cap(int a) const { return cap_[static_cast<std::size_t>(a >> 1)]; }
  static int reverse_arc(int a) noexcept { return a ^ 1; }

  /// Outgoing arc ids of node v (requires finalize()).
  std::span<const int> out_arcs(int v) const {
    const auto b = static_cast<std::size_t>(offset_[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(offset_[static_cast<std::size_t>(v) + 1]);
    return {adj_.data() + b, e - b};
  }

  /// Head node of each outgoing arc of v, aligned with out_arcs(v):
  /// out_heads(v)[i] == arc_to(out_arcs(v)[i]) (requires finalize()).
  std::span<const int> out_heads(int v) const {
    const auto b = static_cast<std::size_t>(offset_[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(offset_[static_cast<std::size_t>(v) + 1]);
    return {head_.data() + b, e - b};
  }

  /// Degree counting parallel edges (requires finalize()).
  int degree(int v) const {
    return offset_[static_cast<std::size_t>(v) + 1] -
           offset_[static_cast<std::size_t>(v)];
  }

  /// Sum of all arc capacities (== 2 * sum of edge capacities).
  double total_capacity() const;

  /// Degree of every node (requires finalize()).
  std::vector<int> degree_sequence() const;

  /// True if some edge u-v (either orientation) exists. O(deg(u)).
  bool has_edge(int u, int v) const;

  /// List of (u, v) pairs for all edges, u/v in stored order.
  std::vector<std::pair<int, int>> edge_list() const;

 private:
  int num_nodes_ = 0;
  std::vector<int> edge_u_;
  std::vector<int> edge_v_;
  std::vector<double> cap_;
  // CSR: adj_ holds arc ids grouped by source node; head_[i] is the head
  // node of arc adj_[i].
  std::vector<int> offset_;
  std::vector<int> adj_;
  std::vector<int> head_;
  bool finalized_ = false;
};

}  // namespace tb
