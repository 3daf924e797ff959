#include "graph/graph.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace tb {

int Graph::add_edge(int u, int v, double cap) {
  if (u == v) throw std::invalid_argument("Graph::add_edge: self loop");
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) {
    throw std::out_of_range("Graph::add_edge: node id out of range");
  }
  if (!std::isfinite(cap) || cap <= 0) {
    throw std::invalid_argument("Graph::add_edge: cap must be finite and > 0");
  }
  edge_u_.push_back(u);
  edge_v_.push_back(v);
  cap_.push_back(cap);
  finalized_ = false;
  return num_edges() - 1;
}

void Graph::finalize() {
  if (finalized_) return;
  offset_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (int e = 0; e < num_edges(); ++e) {
    ++offset_[static_cast<std::size_t>(edge_u_[static_cast<std::size_t>(e)]) + 1];
    ++offset_[static_cast<std::size_t>(edge_v_[static_cast<std::size_t>(e)]) + 1];
  }
  for (std::size_t v = 0; v < offset_.size() - 1; ++v) {
    offset_[v + 1] += offset_[v];
  }
  adj_.assign(static_cast<std::size_t>(num_arcs()), 0);
  head_.assign(static_cast<std::size_t>(num_arcs()), 0);
  std::vector<int> cursor(offset_.begin(), offset_.end() - 1);
  for (int e = 0; e < num_edges(); ++e) {
    const int u = edge_u_[static_cast<std::size_t>(e)];
    const int v = edge_v_[static_cast<std::size_t>(e)];
    const auto iu = static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++);
    const auto iv = static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++);
    adj_[iu] = 2 * e;
    head_[iu] = v;
    adj_[iv] = 2 * e + 1;
    head_[iv] = u;
  }
  finalized_ = true;
}

double Graph::total_capacity() const {
  double sum = 0.0;
  for (const double c : cap_) sum += 2.0 * c;
  return sum;
}

std::vector<int> Graph::degree_sequence() const {
  assert(finalized_);
  std::vector<int> deg(static_cast<std::size_t>(num_nodes_));
  for (int v = 0; v < num_nodes_; ++v) deg[static_cast<std::size_t>(v)] = degree(v);
  return deg;
}

bool Graph::has_edge(int u, int v) const {
  assert(finalized_);
  for (const int a : out_arcs(u)) {
    if (arc_to(a) == v) return true;
  }
  return false;
}

std::vector<std::pair<int, int>> Graph::edge_list() const {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  for (int e = 0; e < num_edges(); ++e) {
    edges.emplace_back(edge_u(e), edge_v(e));
  }
  return edges;
}

}  // namespace tb
