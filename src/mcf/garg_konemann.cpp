#include "mcf/garg_konemann.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "mcf/throughput.h"
#include "util/thread_pool.h"

namespace tb::mcf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sources per deterministic Dijkstra block. A constant, never the pool
/// size, so the block partition — and therefore every result — is the
/// same at any thread count (the threaded-determinism contract).
constexpr std::size_t kBlockSize = 8;

/// Safety cap on the phases of one solve.
constexpr long kMaxPhases = 200'000;

/// Runs `f` when the scope exits, normally or by an exception: the
/// kernels' touched-list resets, so their label arrays are clean again
/// whatever way a call ends.
template <class F>
class OnExit {
 public:
  explicit OnExit(F f) : f_(std::move(f)) {}
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;
  ~OnExit() { f_(); }

 private:
  F f_;
};

/// Smallest graphs, in arcs, on which the pooled block scans beat the
/// serial loops: the serial-vs-pooled curve in docs/ARCHITECTURE.md ("GK's
/// pool cutoff"). Multi-sink groups run a full Dijkstra and a tree build
/// per rebuild; single-sink groups run a short bidirectional search, so
/// their blocks hold less work to spread.
constexpr int kPoolMinArcsMultiSink = 1024;
constexpr int kPoolMinArcsSingleSink = 4096;

}  // namespace

bool gk_pool_pays(int num_arcs, bool multi_sink) noexcept {
  return num_arcs >=
         (multi_sink ? kPoolMinArcsMultiSink : kPoolMinArcsSingleSink);
}

GkSolver::GkSolver(const Graph& g) : g_(&g) {
  assert(g.finalized());
  const int num_arcs = g.num_arcs();
  cap_.resize(static_cast<std::size_t>(num_arcs));
  for (int a = 0; a < num_arcs; ++a) {
    cap_[static_cast<std::size_t>(a)] = g.arc_cap(a);
  }
}

void GkSolver::set_edge_capacity(int e, double cap) {
  if (e < 0 || e >= g_->num_edges()) {
    throw std::out_of_range("GkSolver::set_edge_capacity: bad edge id");
  }
  if (cap < 0.0) {
    throw std::invalid_argument("GkSolver::set_edge_capacity: cap < 0");
  }
  cap_[static_cast<std::size_t>(2 * e)] = cap;
  cap_[static_cast<std::size_t>(2 * e + 1)] = cap;
}

double GkSolver::edge_capacity(int e) const {
  if (e < 0 || e >= g_->num_edges()) {
    throw std::out_of_range("GkSolver::edge_capacity: bad edge id");
  }
  return cap_[static_cast<std::size_t>(2 * e)];
}

void GkSolver::dijkstra_to_targets(
    int src, const std::vector<std::pair<int, double>>& targets,
    Scratch& sc) {
  const Graph& g = *g_;
  auto& dist = sc.dist;
  auto& tent = sc.tent;
  auto& parent = sc.parent;
  auto& is_target = sc.is_target;
  auto& touched = sc.touched;
  auto& heap = sc.heap;
  // `tent` and `is_target` go back to +inf / 0 however the call ends.
  // `parent` needs no reset: a node is settled only after this call set its
  // parent arc, and nothing reads the parent of an unsettled node.
  const OnExit reset{[&] {
    for (const int v : touched) tent[static_cast<std::size_t>(v)] = kInf;
    touched.clear();
    for (const auto& [t, dem] : targets) {
      (void)dem;
      is_target[static_cast<std::size_t>(t)] = 0;
    }
  }};
  dist.assign(static_cast<std::size_t>(g.num_nodes()), kInf);
  std::size_t remaining = 0;
  for (const auto& [t, dem] : targets) {
    (void)dem;
    if (!is_target[static_cast<std::size_t>(t)]) {
      is_target[static_cast<std::size_t>(t)] = 1;
      ++remaining;
    }
  }
  heap.clear();
  tent[static_cast<std::size_t>(src)] = 0.0;
  touched.push_back(src);
  heap.push(0.0, src);
  while (!heap.empty() && remaining > 0) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (dist[static_cast<std::size_t>(u)] < kInf) continue;  // settled
    dist[static_cast<std::size_t>(u)] = d;
    if (is_target[static_cast<std::size_t>(u)]) --remaining;
    const auto arcs = g.out_arcs(u);
    const auto heads = g.out_heads(u);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const int a = arcs[i];
      const int v = heads[i];
      // No settled check needed: a settled node's key is <= d, and
      // nd = d + len >= d, so it never improves.
      const double nd = d + length_[static_cast<std::size_t>(a)];
      double& tv = tent[static_cast<std::size_t>(v)];
      if (nd < tv) {
        if (tv == kInf) touched.push_back(v);
        tv = nd;
        parent[static_cast<std::size_t>(v)] = a;
        heap.push(nd, v);
      }
    }
  }
}

double GkSolver::bidirectional_path(int s, int t, double vol,
                                    std::vector<std::pair<int, double>>&
                                        arcs_out,
                                    Scratch& sc) {
  const Graph& g = *g_;
  auto& dist = sc.bi_dist;
  auto& par = sc.bi_par;
  auto& settled = sc.bi_settled;
  auto& touched = sc.bi_touched;
  auto& heap = sc.bi_heap;
  // Every node a side labels is recorded in its touched list; on exit —
  // the disconnected throw included — exactly those entries go back to
  // +inf / -1 / 0, so the next call starts from clean arrays.
  const OnExit reset{[&] {
    for (int side = 0; side < 2; ++side) {
      for (const int v : touched[side]) {
        dist[side][static_cast<std::size_t>(v)] = kInf;
        par[side][static_cast<std::size_t>(v)] = -1;
        settled[side][static_cast<std::size_t>(v)] = 0;
      }
      touched[side].clear();
    }
  }};
  const int root[2] = {s, t};
  for (int side = 0; side < 2; ++side) {
    heap[side].clear();
    dist[side][static_cast<std::size_t>(root[side])] = 0.0;
    touched[side].push_back(root[side]);
    heap[side].push(0.0, root[side]);
  }
  double mu = kInf;  // best s->v->t value seen so far
  int meet = -1;
  while (!heap[0].empty() && !heap[1].empty()) {
    // Lazy deletion: drop already-settled heap tops before reading minima.
    for (int side = 0; side < 2; ++side) {
      while (!heap[side].empty() &&
             settled[side][static_cast<std::size_t>(heap[side].top().node)]) {
        heap[side].pop();
      }
    }
    if (heap[0].empty() || heap[1].empty()) break;
    if (heap[0].top().key + heap[1].top().key >= mu) break;  // proven
    const int side = heap[0].top().key <= heap[1].top().key ? 0 : 1;
    const auto [d, u] = heap[side].top();
    heap[side].pop();
    if (settled[side][static_cast<std::size_t>(u)]) continue;
    settled[side][static_cast<std::size_t>(u)] = 1;
    std::vector<double>& mine = dist[side];
    const std::vector<double>& theirs = dist[side ^ 1];
    const auto arcs = g.out_arcs(u);
    const auto heads = g.out_heads(u);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const int a = arcs[i];
      const int v = heads[i];
      // Forward relaxes arc u->v; backward relaxes the arc v->u (each
      // direction carries its own length).
      const int path_arc = side == 0 ? a : Graph::reverse_arc(a);
      const double nd = d + length_[static_cast<std::size_t>(path_arc)];
      double& dv = mine[static_cast<std::size_t>(v)];
      if (!(nd < dv)) continue;
      if (dv == kInf) touched[side].push_back(v);
      dv = nd;
      par[side][static_cast<std::size_t>(v)] = path_arc;
      heap[side].push(nd, v);
      // A meeting candidate changes only when one of its two labels does,
      // and every label change is checked here, so re-checking unchanged
      // pairs (which can never beat mu again) is skipped. An unreached
      // other side makes cand +inf, which never beats mu either.
      const double cand = nd + theirs[static_cast<std::size_t>(v)];
      if (cand < mu) {
        mu = cand;
        meet = v;
      }
    }
  }
  if (meet < 0 || !(mu < kInf)) {
    throw std::runtime_error(
        "GkSolver::solve: demand between disconnected nodes");
  }
  // Sink-to-source arc order (the TreeCache convention): the backward half
  // t..meet reversed, then the forward half meet..s in walking order.
  const std::size_t first = arcs_out.size();
  for (int v = meet; v != t;) {
    const int a = par[1][static_cast<std::size_t>(v)];  // arc v -> next
    arcs_out.emplace_back(a, vol);
    v = g.arc_to(a);
  }
  std::reverse(arcs_out.begin() + static_cast<std::ptrdiff_t>(first),
               arcs_out.end());
  for (int v = meet; v != s;) {
    const int a = par[0][static_cast<std::size_t>(v)];  // arc prev -> v
    arcs_out.emplace_back(a, vol);
    v = g.arc_from(a);
  }
  return mu;
}

GkResult GkSolver::solve(const TrafficMatrix& tm, const GkOptions& opts,
                         bool warm) {
  const Graph& g = *g_;
  const int num_arcs = g.num_arcs();
  const auto n = static_cast<std::size_t>(g.num_nodes());
  check_epsilon(opts.epsilon, "GkSolver::solve: epsilon");
  if (tm.demands.empty()) {
    throw std::invalid_argument("GkSolver::solve: empty traffic matrix");
  }

  const auto alive = [this](int a) {
    return cap_[static_cast<std::size_t>(a)] > 0.0;
  };
  int num_alive = 0;
  for (int a = 0; a < num_arcs; ++a) {
    if (alive(a)) ++num_alive;
  }
  if (num_alive == 0) {
    throw std::invalid_argument("GkSolver::solve: no arcs with capacity");
  }

  // Group demands by source (reusing the session's group storage).
  groups_.clear();
  {
    std::vector<int> group_of(n, -1);
    for (const Demand& d : tm.demands) {
      if (d.amount <= 0.0 || d.src == d.dst) continue;
      int& gi = group_of[static_cast<std::size_t>(d.src)];
      if (gi == -1) {
        gi = static_cast<int>(groups_.size());
        groups_.push_back({d.src, {}, 0.0});
      }
      groups_[static_cast<std::size_t>(gi)].sinks.emplace_back(d.dst, d.amount);
      groups_[static_cast<std::size_t>(gi)].out_total += d.amount;
    }
  }
  if (groups_.empty()) {
    throw std::invalid_argument("GkSolver::solve: no routable demands");
  }

  // Pre-scale so every source's per-phase volume fits the smallest live
  // capacity (one legal GK step per arc per source visit). Throughput
  // scales back.
  double min_cap = kInf;
  for (int a = 0; a < num_arcs; ++a) {
    if (alive(a)) {
      min_cap = std::min(min_cap, cap_[static_cast<std::size_t>(a)]);
    }
  }
  double max_out = 0.0;
  for (const SourceGroup& grp : groups_) {
    max_out = std::max(max_out, grp.out_total);
  }
  const double demand_scale = max_out > min_cap ? min_cap / max_out : 1.0;

  const double eps = opts.epsilon;
  // Multiplicative step. The classic analysis wants eps/3; since we certify
  // the primal/dual gap explicitly, a more aggressive step only affects how
  // fast the certificate closes, not its validity.
  const double eps_step = eps / 2.0;
  const double m = static_cast<double>(std::max(1, num_alive));
  // At tight eps the textbook delta underflows ((2/eps) ln m >~ 708, e.g.
  // eps < 0.015 at 200 arcs): lengths would start at 0 and no exact sweep
  // could certify a bound. Floor it at the smallest normal double; any
  // positive start is valid (see below), and a normal delta is unchanged.
  const double delta =
      std::max(std::pow(m / (1.0 - eps_step), -1.0 / eps_step),
               std::numeric_limits<double>::min());
  const double log_scale = std::log(1.0 / delta) / std::log1p(eps_step);

  // Arc lengths. Cold start: delta/c(a). Warm start: keep the *shape* of
  // the previous solve's final lengths (they encode which arcs were the
  // bottlenecks), renormalized so the total mass D(l) = sum c(a) l(a)
  // equals the cold-start mass m*delta, then floored at the cold value so
  // no arc starts cheaper than it would cold. Any positive length function
  // is a valid start — the dual certificate holds for all of them — so
  // this only changes convergence, never correctness. Arcs failed in the
  // current capacities always get +inf (never routed); arcs that were
  // failed before but are live again fall back to the cold value.
  const bool warm_seeded = warm && has_warm_ &&
                           length_.size() == static_cast<std::size_t>(num_arcs);
  double sum_cl = 0.0;  // D(l) = sum_a c(a) * l(a) over live arcs
  if (warm_seeded) {
    double mass = 0.0;
    for (int a = 0; a < num_arcs; ++a) {
      if (!alive(a)) continue;
      const double cap = cap_[static_cast<std::size_t>(a)];
      double& len = length_[static_cast<std::size_t>(a)];
      if (!std::isfinite(len) || len <= 0.0) len = delta / cap;
      mass += cap * len;
    }
    const double rescale = m * delta / mass;
    for (int a = 0; a < num_arcs; ++a) {
      if (!alive(a)) {
        length_[static_cast<std::size_t>(a)] = kInf;
        continue;
      }
      const double cap = cap_[static_cast<std::size_t>(a)];
      const double seeded = std::max(
          length_[static_cast<std::size_t>(a)] * rescale, delta / cap);
      length_[static_cast<std::size_t>(a)] = seeded;
      sum_cl += cap * seeded;
    }
  } else {
    length_.resize(static_cast<std::size_t>(num_arcs));
    for (int a = 0; a < num_arcs; ++a) {
      if (!alive(a)) {
        length_[static_cast<std::size_t>(a)] = kInf;
        continue;
      }
      length_[static_cast<std::size_t>(a)] =
          delta / cap_[static_cast<std::size_t>(a)];
      sum_cl += delta;
    }
  }

  flow_.assign(static_cast<std::size_t>(num_arcs), 0.0);

  // Windowed primal: MWU spends its first phases "mixing" toward the
  // optimal flow pattern; the average over a recent window converges much
  // faster than the average since phase 0. Snapshots double in the classic
  // way so total memory stays O(m).
  snap_flow_.assign(static_cast<std::size_t>(num_arcs), 0.0);
  long snap_phase = 0;

  // Per-slot scratch, one slot per block position (fixed block size =>
  // the partition, and therefore the result, never depends on the pool).
  // The graph is fixed for the solver's life, so the kept-clean arrays are
  // filled on the first solve only and stay clean across solves.
  scratch_.resize(kBlockSize);
  for (Scratch& sc : scratch_) {
    sc.tent.resize(n, kInf);
    sc.parent.resize(n, -1);
    sc.is_target.resize(n, 0);
    sc.node_vol.assign(n, 0.0);  // kept zeroed between uses
    sc.order.resize(n);
    sc.cur_dist.resize(n);
    for (int side = 0; side < 2; ++side) {
      sc.bi_dist[side].resize(n, kInf);
      sc.bi_par[side].resize(n, -1);
      sc.bi_settled[side].resize(n, 0);
    }
  }

  // Fleischer's shortest-path tree reuse: per-group cached routed trees
  // and the helpers that build, validate, and route along them. A cached
  // tree's per-arc volumes are fixed (each phase routes the same demands),
  // so routing a fresh-enough tree is a flat array walk with no Dijkstra.
  tree_cache_.assign(groups_.size(), {});
  // A tree is reusable while its paths stay within (1 + eps) of their
  // build-time shortest lengths: routing then loses at most ~eps of path
  // optimality, which shows up only in how fast the certified gap closes.
  const double stale_budget = 1.0 + eps;

  const auto build_cache = [&](std::size_t gi, Scratch& sc) {
    const SourceGroup& grp = groups_[gi];
    const std::vector<double>& dist = sc.dist;
    const std::vector<int>& parent = sc.parent;
    TreeCache& cache = tree_cache_[gi];
    cache.arcs.clear();
    cache.build_dist.resize(grp.sinks.size());
    for (std::size_t i = 0; i < grp.sinks.size(); ++i) {
      const auto& [dst, demand] = grp.sinks[i];
      (void)demand;
      if (dist[static_cast<std::size_t>(dst)] >= kInf) {
        throw std::runtime_error(
            "GkSolver::solve: demand between disconnected nodes");
      }
      cache.build_dist[i] = dist[static_cast<std::size_t>(dst)];
    }
    // Single-sink groups never reach here (rebuild_single handles them);
    // push sink volumes up the tree in decreasing-distance order.
    assert(grp.sinks.size() > 1);
    for (const auto& [dst, demand] : grp.sinks) {
      sc.node_vol[static_cast<std::size_t>(dst)] += demand * demand_scale;
    }
    for (std::size_t v = 0; v < n; ++v) sc.order[v] = static_cast<int>(v);
    std::sort(sc.order.begin(), sc.order.end(), [&dist](int a, int b) {
      return dist[static_cast<std::size_t>(a)] >
             dist[static_cast<std::size_t>(b)];
    });
    for (std::size_t i = 0; i < n; ++i) {
      const int v = sc.order[i];
      if (v == grp.src) continue;
      const double vol = sc.node_vol[static_cast<std::size_t>(v)];
      if (vol <= 0.0) continue;
      sc.node_vol[static_cast<std::size_t>(v)] = 0.0;
      const int pa = parent[static_cast<std::size_t>(v)];
      assert(pa >= 0);
      sc.node_vol[static_cast<std::size_t>(g.arc_from(pa))] += vol;
      cache.arcs.emplace_back(pa, vol);
    }
    sc.node_vol[static_cast<std::size_t>(grp.src)] = 0.0;
    cache.valid = true;
  };

  // Tree-walk the cached arcs root-to-leaf (the build order reversed) to
  // get every sink's current path length; the tree is fresh while no sink
  // drifted past the staleness budget of its build-time shortest distance.
  const auto tree_fresh = [&](std::size_t gi, Scratch& sc) {
    const SourceGroup& grp = groups_[gi];
    const TreeCache& cache = tree_cache_[gi];
    sc.cur_dist[static_cast<std::size_t>(grp.src)] = 0.0;
    for (auto it = cache.arcs.rbegin(); it != cache.arcs.rend(); ++it) {
      const int a = it->first;
      sc.cur_dist[static_cast<std::size_t>(g.arc_to(a))] =
          sc.cur_dist[static_cast<std::size_t>(g.arc_from(a))] +
          length_[static_cast<std::size_t>(a)];
    }
    for (std::size_t i = 0; i < grp.sinks.size(); ++i) {
      if (sc.cur_dist[static_cast<std::size_t>(grp.sinks[i].first)] >
          stale_budget * cache.build_dist[i]) {
        return false;
      }
    }
    return true;
  };

  // Single-sink rebuild via bidirectional search (exact path + distance);
  // returns the build-time distance it stored.
  const auto rebuild_single = [&](std::size_t gi, Scratch& sc) {
    const SourceGroup& grp = groups_[gi];
    TreeCache& cache = tree_cache_[gi];
    cache.arcs.clear();
    cache.build_dist.resize(1);
    cache.build_dist[0] =
        bidirectional_path(grp.src, grp.sinks[0].first,
                           grp.sinks[0].second * demand_scale, cache.arcs, sc);
    cache.valid = true;
    return cache.build_dist[0];
  };

  const auto route_cached = [&](const TreeCache& cache, double& sum_cl_ref) {
    for (const auto& [a, vol] : cache.arcs) {
      flow_[static_cast<std::size_t>(a)] += vol;
      const double cap = cap_[static_cast<std::size_t>(a)];
      const double old_len = length_[static_cast<std::size_t>(a)];
      const double new_len = old_len * (1.0 + eps_step * vol / cap);
      length_[static_cast<std::size_t>(a)] = new_len;
      sum_cl_ref += cap * (new_len - old_len);
    }
  };

  GkResult res;
  res.upper_bound = kInf;
  res.warm_started = warm_seeded;
  // One decision per solve (gk_pool_pays): below the cutoff the blocks
  // run serially even when a pool is given.
  ThreadPool* const pool = opts.pool;
  const bool multi_sink =
      std::any_of(groups_.begin(), groups_.end(),
                  [](const SourceGroup& grp) { return grp.sinks.size() > 1; });
  const bool par = pool != nullptr && pool->size() > 1 &&
                   gk_pool_pays(num_arcs, multi_sink);

  long phase = 0;
  long dijkstras = 0;
  long next_sweep = 1;  // adaptive exact-sweep schedule
  double best_window_congestion = kInf;
  bool best_is_window = false;
  double best_gap_seen = kInf;
  long last_gap_improvement = 0;
  bool stop = false;
  while (!stop && phase < kMaxPhases) {
    // Block-parallel phase: a block's freshness checks and tree rebuilds
    // run against the lengths frozen at the block boundary (each slot on
    // its own scratch), then the block's routing/length updates apply
    // serially in group order — bitwise the same whether the block ran
    // serial or on the pool. No per-phase alpha: routing may follow stale
    // trees, so the dual bound comes solely from the exact sweeps below.
    for (std::size_t g0 = 0; g0 < groups_.size(); g0 += kBlockSize) {
      const std::size_t g1 = std::min(groups_.size(), g0 + kBlockSize);
      const auto prep = [&](std::size_t k) {
        const std::size_t gi = g0 + k;
        Scratch& sc = scratch_[k];
        sc.rebuilt = false;
        if (tree_cache_[gi].valid && tree_fresh(gi, sc)) return;
        if (groups_[gi].sinks.size() == 1) {
          rebuild_single(gi, sc);
        } else {
          dijkstra_to_targets(groups_[gi].src, groups_[gi].sinks, sc);
          build_cache(gi, sc);
        }
        sc.rebuilt = true;
      };
      if (par && g1 - g0 > 1) {
        pool->parallel_for(0, g1 - g0, prep);
      } else {
        for (std::size_t k = 0; k < g1 - g0; ++k) prep(k);
      }
      for (std::size_t k = 0; k < g1 - g0; ++k) {
        if (scratch_[k].rebuilt) ++dijkstras;
        route_cached(tree_cache_[g0 + k], sum_cl);
      }
    }

    ++phase;
    // Exact sweep: alpha recomputed against the frozen end-of-phase lengths
    // gives the dual bound D(l)/alpha(l), and its shortest-path trees
    // refresh every cache for free. The schedule backs off on long solves
    // (the dual bound tightens early — later sweeps mostly serve the stop
    // check and the tree refresh).
    if (phase <= 3 || phase >= next_sweep) {
      next_sweep = phase + (phase < 250 ? 5 : phase < 1000 ? 10 : 20);
      // Block-parallel: each group's alpha term lands in its own slot and
      // the sum reduces in group order after the barrier, so the
      // certificate is bitwise thread-count invariant.
      alpha_part_.assign(groups_.size(), 0.0);
      for (std::size_t g0 = 0; g0 < groups_.size(); g0 += kBlockSize) {
        const std::size_t g1 = std::min(groups_.size(), g0 + kBlockSize);
        const auto sweep_group = [&](std::size_t k) {
          const std::size_t gi = g0 + k;
          const SourceGroup& grp = groups_[gi];
          Scratch& sc = scratch_[k];
          if (grp.sinks.size() == 1) {
            // Bidirectional exact distance doubles as the alpha term.
            alpha_part_[gi] =
                grp.sinks[0].second * demand_scale * rebuild_single(gi, sc);
            return;
          }
          dijkstra_to_targets(grp.src, grp.sinks, sc);
          double acc = 0.0;
          for (const auto& [dst, demand] : grp.sinks) {
            acc +=
                demand * demand_scale * sc.dist[static_cast<std::size_t>(dst)];
          }
          alpha_part_[gi] = acc;
          build_cache(gi, sc);
        };
        if (par && g1 - g0 > 1) {
          pool->parallel_for(0, g1 - g0, sweep_group);
        } else {
          for (std::size_t k = 0; k < g1 - g0; ++k) sweep_group(k);
        }
        dijkstras += static_cast<long>(g1 - g0);
      }
      double alpha_exact = 0.0;
      for (const double part : alpha_part_) alpha_exact += part;
      if (alpha_exact > 0.0) {
        res.upper_bound = std::min(res.upper_bound, sum_cl / alpha_exact);
      }
    }

    // Primal candidates: lifetime average and window average.
    double cong_total = 0.0;
    double cong_window = 0.0;
    for (int a = 0; a < num_arcs; ++a) {
      if (!alive(a)) continue;
      const double cap = cap_[static_cast<std::size_t>(a)];
      cong_total =
          std::max(cong_total, flow_[static_cast<std::size_t>(a)] / cap);
      cong_window = std::max(cong_window,
                             (flow_[static_cast<std::size_t>(a)] -
                              snap_flow_[static_cast<std::size_t>(a)]) /
                                 cap);
    }
    double primal = 0.0;
    if (cong_total > 0.0) {
      primal = static_cast<double>(phase) / cong_total;
      best_is_window = false;
    }
    if (cong_window > 0.0 && phase > snap_phase) {
      const double pw = static_cast<double>(phase - snap_phase) / cong_window;
      if (pw > primal) {
        primal = pw;
        best_is_window = true;
        best_window_congestion = cong_window;
      }
    }
    res.throughput = primal;
    res.max_congestion = cong_total;

    if (res.upper_bound < kInf && primal > 0.0) {
      const double gap = res.upper_bound / primal - 1.0;
      if (gap < best_gap_seen - 1e-4) {
        best_gap_seen = gap;
        last_gap_improvement = phase;
      }
    }

    if (res.upper_bound < kInf && primal > 0.0 &&
        res.upper_bound <= primal * (1.0 + eps)) {
      stop = true;  // certified (1+eps) gap
    } else if (sum_cl >= 1.0) {
      stop = true;  // classic GK termination; theory guarantees (1-3*eps/2)
    } else if (phase - last_gap_improvement >
               std::max<long>(500, last_gap_improvement)) {
      // Plateau guard: the certificate has stopped tightening; return the
      // best certified pair rather than grinding to the D >= 1 cutoff.
      // Callers see the true residual gap in upper_bound.
      stop = true;
    } else if (phase - snap_phase >= std::max<long>(16, snap_phase)) {
      snap_flow_ = flow_;
      snap_phase = phase;
    }
  }
  res.phases = phase;
  res.dijkstras = dijkstras;

  if (res.throughput <= 0.0 || !std::isfinite(res.throughput)) {
    res.throughput = static_cast<double>(phase) / log_scale;
    best_is_window = false;
  }

  // Report in the caller's demand units; emit the feasible scaled flow of
  // whichever window produced the certified primal.
  res.throughput *= demand_scale;
  res.upper_bound *= demand_scale;
  res.arc_flow.resize(static_cast<std::size_t>(num_arcs));
  if (best_is_window && best_window_congestion > 0.0) {
    for (int a = 0; a < num_arcs; ++a) {
      res.arc_flow[static_cast<std::size_t>(a)] =
          (flow_[static_cast<std::size_t>(a)] -
           snap_flow_[static_cast<std::size_t>(a)]) /
          best_window_congestion;
    }
  } else {
    const double fs = res.max_congestion > 0.0 ? 1.0 / res.max_congestion : 0.0;
    for (int a = 0; a < num_arcs; ++a) {
      res.arc_flow[static_cast<std::size_t>(a)] =
          flow_[static_cast<std::size_t>(a)] * fs;
    }
  }
  has_warm_ = true;  // length_ now holds this solve's final lengths
  return res;
}

}  // namespace tb::mcf
