#include "mcf/engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tb::mcf {

std::vector<int> sampled_risk_groups(const ScenarioSpec& spec,
                                     int num_groups) {
  if (!(spec.random_group_fraction >= 0.0 &&
        spec.random_group_fraction <= 1.0)) {
    throw std::invalid_argument(
        "apply_scenario: random_group_fraction must be in [0, 1]");
  }
  if ((!spec.failed_groups.empty() || spec.random_group_fraction > 0.0) &&
      num_groups == 0) {
    throw std::invalid_argument(
        "apply_scenario: scenario fails risk groups but the network exports "
        "none (see ensure_risk_groups)");
  }
  std::vector<int> groups;
  for (const int gi : spec.failed_groups) {
    if (gi < 0 || gi >= num_groups) {
      throw std::out_of_range("apply_scenario: bad risk-group index");
    }
    groups.push_back(gi);
  }
  if (spec.random_group_fraction > 0.0 && num_groups > 0) {
    const int k = static_cast<int>(std::min<long long>(
        num_groups,
        std::llround(spec.random_group_fraction * num_groups)));
    Rng rng(mix_seed(spec.seed, kGroupSampleStream));
    for (const int gi : rng.sample_without_replacement(num_groups, k)) {
      groups.push_back(gi);
    }
  }
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  return groups;
}

ThroughputEngine::ThroughputEngine(const Network& net)
    : net_(&net), gk_(net.graph) {}

ThroughputEngine::ThroughputEngine(const ThroughputEngine& base, bool)
    : net_(base.net_),
      gk_(base.gk_),
      gk_tm_fingerprint_(base.gk_tm_fingerprint_) {}

std::unique_ptr<ThroughputEngine> ThroughputEngine::fork_session() const {
  if (scenario_active_) {
    throw std::logic_error(
        "ThroughputEngine::fork_session: scenario active — fork the intact "
        "baseline, then apply scenarios to the clones");
  }
  return std::unique_ptr<ThroughputEngine>(new ThroughputEngine(*this, true));
}

void ThroughputEngine::apply_scenario(const ScenarioSpec& spec) {
  const Graph& g = net_->graph;
  const int num_edges = g.num_edges();
  const int n = g.num_nodes();
  // Validate the whole spec before touching any member: a throw must leave
  // the engine exactly as it was.
  if (!(spec.capacity_factor > 0.0) || spec.capacity_factor > 1.0) {
    throw std::invalid_argument(
        "apply_scenario: capacity_factor must be in (0, 1]");
  }
  if (!(spec.random_edge_fraction >= 0.0 &&
        spec.random_edge_fraction <= 1.0)) {
    throw std::invalid_argument(
        "apply_scenario: random_edge_fraction must be in [0, 1]");
  }
  if (!(spec.tm_scale > 0.0) || !std::isfinite(spec.tm_scale)) {
    throw std::invalid_argument(
        "apply_scenario: tm_scale must be finite and > 0");
  }
  if (!(spec.installed_fraction > 0.0) || spec.installed_fraction > 1.0) {
    throw std::invalid_argument(
        "apply_scenario: installed_fraction must be in (0, 1]");
  }
  for (const int e : spec.failed_edges) {
    if (e < 0 || e >= num_edges) {
      throw std::out_of_range("apply_scenario: bad edge id");
    }
  }
  // Correlated shared-risk failures: explicit group indices plus the seeded
  // group sample, every member edge failed together.
  const std::vector<int> groups = sampled_risk_groups(
      spec, static_cast<int>(net_->risk_groups.size()));
  for (const int v : spec.failed_nodes) {
    if (v < 0 || v >= n) {
      throw std::out_of_range("apply_scenario: bad node id");
    }
  }

  clear_scenario();
  std::vector<char> fail(static_cast<std::size_t>(num_edges), 0);
  for (const int e : spec.failed_edges) fail[static_cast<std::size_t>(e)] = 1;
  for (const int gi : groups) {
    for (const int e : net_->risk_groups[static_cast<std::size_t>(gi)].edges) {
      fail[static_cast<std::size_t>(e)] = 1;
    }
  }
  failed_group_count_ = static_cast<int>(groups.size());
  node_failed_.assign(static_cast<std::size_t>(n), 0);
  for (const int v : spec.failed_nodes) {
    node_failed_[static_cast<std::size_t>(v)] = 1;
    any_node_failed_ = true;
  }
  if (spec.installed_fraction < 1.0) {
    const int installed = static_cast<int>(std::max<long long>(
        2, std::min<long long>(n, std::llround(spec.installed_fraction * n))));
    for (int v = installed; v < n; ++v) {
      node_failed_[static_cast<std::size_t>(v)] = 1;
      any_node_failed_ = true;
    }
  }
  if (any_node_failed_) {
    for (int e = 0; e < num_edges; ++e) {
      if (node_failed_[static_cast<std::size_t>(g.edge_u(e))] ||
          node_failed_[static_cast<std::size_t>(g.edge_v(e))]) {
        fail[static_cast<std::size_t>(e)] = 1;
      }
    }
  }
  if (spec.random_edge_fraction > 0.0 && num_edges > 0) {
    const int k = static_cast<int>(std::min<long long>(
        num_edges, std::llround(spec.random_edge_fraction * num_edges)));
    Rng rng(spec.seed);
    for (const int e : rng.sample_without_replacement(num_edges, k)) {
      fail[static_cast<std::size_t>(e)] = 1;
    }
  }
  // Perturb only the edges whose working capacity actually changes, and
  // remember their unperturbed values: clear_scenario() repairs from this
  // list in O(affected arcs) instead of rebuilding the session.
  for (int e = 0; e < num_edges; ++e) {
    const double base = g.edge_cap(e);
    const bool failed = fail[static_cast<std::size_t>(e)] != 0;
    const double now = failed ? 0.0 : base * spec.capacity_factor;
    if (failed) ++failed_edge_count_;
    if (now != base) {
      touched_.emplace_back(e, base);
      gk_.set_edge_capacity(e, now);
    }
  }
  tm_scale_ = spec.tm_scale;
  scenario_active_ = true;
}

void ThroughputEngine::clear_scenario() {
  for (const auto& [e, base] : touched_) gk_.set_edge_capacity(e, base);
  touched_.clear();
  surviving_.reset();
  node_failed_.clear();
  scenario_active_ = false;
  any_node_failed_ = false;
  failed_edge_count_ = 0;
  failed_group_count_ = 0;
  tm_scale_ = 1.0;
}

const Graph& ThroughputEngine::surviving_graph() {
  const Graph& g = net_->graph;
  if (touched_.empty()) return g;
  if (!surviving_) {
    const std::vector<double>& cap = gk_.arc_capacities();
    Graph& s = surviving_.emplace(g.num_nodes());
    for (int e = 0; e < g.num_edges(); ++e) {
      const double c = cap[static_cast<std::size_t>(2 * e)];
      if (c > 0.0) s.add_edge(g.edge_u(e), g.edge_v(e), c);
    }
    s.finalize();
  }
  return *surviving_;
}

TrafficMatrix ThroughputEngine::scenario_tm(const TrafficMatrix& tm) const {
  TrafficMatrix out;
  out.name = tm.name;
  out.demands.reserve(tm.demands.size());
  for (Demand d : tm.demands) {
    if (any_node_failed_ && (node_failed_[static_cast<std::size_t>(d.src)] ||
                             node_failed_[static_cast<std::size_t>(d.dst)])) {
      continue;
    }
    d.amount *= tm_scale_;
    out.demands.push_back(d);
  }
  return out;
}

bool ThroughputEngine::demands_connected(const TrafficMatrix& tm) {
  int num_components = 0;
  const std::vector<int> comp =
      connected_components(surviving_graph(), &num_components);
  for (const Demand& d : tm.demands) {
    if (comp[static_cast<std::size_t>(d.src)] !=
        comp[static_cast<std::size_t>(d.dst)]) {
      return false;
    }
  }
  return true;
}

ThroughputResult ThroughputEngine::solve(const TrafficMatrix& tm,
                                         const SolveOptions& opts) {
  return run(tm, opts, /*warm=*/false);
}

ThroughputResult ThroughputEngine::warm_solve(const TrafficMatrix& tm,
                                              const SolveOptions& opts) {
  return run(tm, opts, /*warm=*/true);
}

ThroughputResult ThroughputEngine::run(const TrafficMatrix& tm,
                                       const SolveOptions& opts, bool warm) {
  check_epsilon(opts.epsilon, "ThroughputEngine: epsilon");
  if (tm.demands.empty()) {
    // Both kernels reject this too, with different messages; an empty TM
    // (e.g. any TM on a single switch) has one answer whichever Auto picks.
    throw std::invalid_argument("ThroughputEngine: empty traffic matrix");
  }
  validate_tm(tm, *net_, /*check_hose=*/false);

  // The scenario's TM perturbation is applied to the input matrix per
  // solve; capacities (and therefore the O(affected) revert list) are never
  // involved.
  TrafficMatrix perturbed;
  if (scenario_active_) perturbed = scenario_tm(tm);
  const TrafficMatrix& effective = scenario_active_ ? perturbed : tm;

  if (scenario_active_ &&
      (effective.demands.empty() || !demands_connected(effective))) {
    // A demand the surviving capacities cannot serve (or no demands left at
    // all) makes 0 the exact optimum of the concurrent-flow LP.
    ThroughputResult zero;
    zero.solver = "disconnected";
    return zero;
  }

  // Auto dispatch: the dense simplex degrades steeply with LP size
  // (sources x arcs flow variables), so ExactLP is only picked when the
  // instance is genuinely small.
  long num_sources = 0;
  {
    std::vector<char> seen(static_cast<std::size_t>(net_->graph.num_nodes()),
                           0);
    for (const Demand& d : effective.demands) {
      if (!seen[static_cast<std::size_t>(d.src)]) {
        seen[static_cast<std::size_t>(d.src)] = 1;
        ++num_sources;
      }
    }
  }
  const bool use_exact =
      opts.kind == SolverKind::ExactLP ||
      (opts.kind == SolverKind::Auto &&
       net_->graph.num_nodes() <= kExactMaxSwitches &&
       lp_size_within(num_sources, net_->graph.num_arcs(), kExactMaxLpSize));
  ThroughputResult res;
  if (use_exact) {
    res = throughput_exact_lp(surviving_graph(), effective);
  } else {
    GkOptions gkopts;
    gkopts.epsilon = opts.epsilon;
    gkopts.pool = ThreadPool::resolve(opts.solver_threads);
    // A warm solve seeds the lengths from the previous solve only when this
    // TM routes the same commodity pairs (failure scenarios, scaled
    // demands): across *different* TMs the previous bottleneck shape
    // misleads more than it helps — empirically it inflates
    // trivially-converging instances by orders of magnitude. Unseeded, a
    // warm solve is bitwise the cold solve.
    std::uint64_t fp = 0x9e3779b97f4a7c15ULL;
    for (const Demand& d : effective.demands) {
      fp += mix_seed(static_cast<std::uint64_t>(d.src),
                     static_cast<std::uint64_t>(d.dst));
    }
    const bool seed_lengths = warm && fp == gk_tm_fingerprint_;
    const GkResult r = gk_.solve(effective, gkopts, seed_lengths);
    gk_tm_fingerprint_ = fp;
    res.throughput = r.throughput;
    res.upper_bound = r.upper_bound;
    res.solver = "garg-konemann";
    res.stats.phases = r.phases;
    res.stats.dijkstras = r.dijkstras;
  }
  // "Warm" records that a warm solve was requested, on both kernels: an
  // ExactLP solve always starts from its spanning-tree basis, and GK seeds
  // its lengths only when the commodity fingerprint matched.
  res.stats.warm_start = warm;
  return res;
}

}  // namespace tb::mcf
