#include "mcf/throughput.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.h"
#include "lp/simplex.h"

namespace tb::mcf {

void check_epsilon(double eps, const std::string& what) {
  if (epsilon_in_range(eps)) return;
  char range[64];
  std::snprintf(range, sizeof(range), " must be in [%g, %g]", kMinEpsilon,
                kMaxEpsilon);
  throw std::invalid_argument(what + range);
}

namespace {

/// A primal-feasible starting basis for the LP throughput_exact_lp builds,
/// in the column numbering of lp::Options::warm_basis: structurals
/// [0, num_vars), then the slack of each capacity row (the LE rows,
/// num_vars + a for arc a), then the artificial of each conservation row
/// (the EQ rows, in row order). Each capacity row keeps its slack;
/// conservation row (s, v) takes the flow variable of the arc into v on a
/// BFS tree from s, or its artificial when v is unreachable from s. The
/// basis is block-triangular (slacks over each source's tree incidence),
/// and its basic solution is x_B = (cap, 0), feasible with no artificial
/// above 0, where the cold start puts a zero-valued Big-M artificial in
/// every conservation row and pivots most of them out degenerately. lp::solve checks the candidate, so a wrong guess (a
/// negative capacity flips its row's sense) costs pivots only.
std::vector<int> spanning_tree_basis(const Graph& g,
                                     const std::map<int, int>& base_of_source,
                                     int num_vars) {
  const int n = g.num_nodes();
  const int num_arcs = g.num_arcs();
  std::vector<int> basis;
  basis.reserve(static_cast<std::size_t>(num_arcs) +
                base_of_source.size() * static_cast<std::size_t>(n - 1));
  for (int a = 0; a < num_arcs; ++a) basis.push_back(num_vars + a);
  std::vector<int> tree_arc(static_cast<std::size_t>(n));
  std::vector<int> queue;
  queue.reserve(static_cast<std::size_t>(n));
  int artificial = num_vars + num_arcs;  // of the next conservation row
  for (const auto& [s, base] : base_of_source) {
    std::fill(tree_arc.begin(), tree_arc.end(), -1);
    queue.assign(1, s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      for (const int a : g.out_arcs(u)) {
        const int v = g.arc_to(a);
        if (v != s && tree_arc[static_cast<std::size_t>(v)] < 0) {
          tree_arc[static_cast<std::size_t>(v)] = a;
          queue.push_back(v);
        }
      }
    }
    for (int v = 0; v < n; ++v) {
      if (v == s) continue;
      const int a = tree_arc[static_cast<std::size_t>(v)];
      basis.push_back(a >= 0 ? base + a : artificial);
      ++artificial;
    }
  }
  return basis;
}

}  // namespace

ThroughputResult throughput_exact_lp(const Graph& g, const TrafficMatrix& tm) {
  if (!g.finalized()) throw std::logic_error("throughput_exact_lp: graph not finalized");
  const int n = g.num_nodes();
  const int num_arcs = g.num_arcs();

  // Aggregate demands by source: D[s][v] = demand s -> v.
  std::map<int, std::map<int, double>> by_source;
  for (const Demand& d : tm.demands) {
    if (d.src != d.dst && d.amount > 0.0) by_source[d.src][d.dst] += d.amount;
  }
  if (by_source.empty()) {
    throw std::invalid_argument("throughput_exact_lp: no demands");
  }

  // Variables: t, then f[s][a] per source s and arc a.
  lp::Problem prob;
  prob.maximize = true;
  const int t_var = prob.add_var(1.0);
  std::map<int, int> base_of_source;  // source -> first flow-variable index
  for (const auto& [s, sinks] : by_source) {
    (void)sinks;
    base_of_source[s] = prob.num_vars;
    for (int a = 0; a < num_arcs; ++a) prob.add_var(0.0);
  }

  // Capacity rows: sum_s f[s][a] <= c(a).
  for (int a = 0; a < num_arcs; ++a) {
    lp::Row row;
    row.sense = lp::Sense::LE;
    row.rhs = g.arc_cap(a);
    for (const auto& [s, base] : base_of_source) {
      (void)s;
      row.terms.emplace_back(base + a, 1.0);
    }
    prob.add_row(std::move(row));
  }

  // Conservation: for each source s and node v != s,
  //   inflow(v) - outflow(v) - t * D(s, v) = 0.
  // (Conservation at s itself is implied by the sum of the others.)
  for (const auto& [s, sinks] : by_source) {
    const int base = base_of_source[s];
    for (int v = 0; v < n; ++v) {
      if (v == s) continue;
      lp::Row row;
      row.sense = lp::Sense::EQ;
      row.rhs = 0.0;
      for (const int a : g.out_arcs(v)) {
        row.terms.emplace_back(base + Graph::reverse_arc(a), 1.0);  // inflow
        row.terms.emplace_back(base + a, -1.0);                     // outflow
      }
      const auto it = sinks.find(v);
      if (it != sinks.end()) {
        row.terms.emplace_back(t_var, -it->second);
      }
      prob.add_row(std::move(row));
    }
  }

  const std::vector<int> tree_basis =
      spanning_tree_basis(g, base_of_source, prob.num_vars);
  lp::Options lopts;
  lopts.warm_basis = &tree_basis;
  const lp::Result sol = lp::solve(prob, lopts);
  if (sol.status != lp::Status::Optimal) {
    throw std::runtime_error(std::string("throughput_exact_lp: LP status ") +
                             lp::status_name(sol.status));
  }
  ThroughputResult res;
  res.throughput = sol.x[static_cast<std::size_t>(t_var)];
  res.upper_bound = res.throughput;
  res.solver = "exact-lp";
  res.stats.pivots = sol.iterations;
  return res;
}

double volumetric_upper_bound(const Graph& g, const TrafficMatrix& tm) {
  double weighted_len = 0.0;
  std::map<int, std::vector<int>> dist_cache;
  for (const Demand& d : tm.demands) {
    auto it = dist_cache.find(d.src);
    if (it == dist_cache.end()) {
      it = dist_cache.emplace(d.src, bfs_distances(g, d.src)).first;
    }
    const int hops = it->second[static_cast<std::size_t>(d.dst)];
    if (hops == kUnreachable) {
      throw std::logic_error("volumetric_upper_bound: disconnected demand");
    }
    weighted_len += d.amount * hops;
  }
  if (weighted_len <= 0.0) throw std::invalid_argument("volumetric bound: no demand");
  return g.total_capacity() / weighted_len;
}

}  // namespace tb::mcf
