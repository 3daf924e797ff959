#include "cuts/sparsest_cut.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "cuts/cut_tracker.h"
#include "cuts/exact_cuts.h"
#include "graph/algorithms.h"
#include "graph/spectral.h"

namespace tb::cuts {

const char* to_string(CutBound b) {
  switch (b) {
    case CutBound::Upper:
      return "upper";
    case CutBound::Exact:
      return "exact";
  }
  return "?";
}

namespace {

using detail::CutTracker;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Track the best (lowest-sparsity) cut seen.
struct Best {
  double sparsity = kInf;
  std::vector<std::uint8_t> side;

  void offer(double s, const std::vector<std::uint8_t>& candidate) {
    if (s < sparsity) {
      sparsity = s;
      side = candidate;
    }
  }

  /// Price the tracker's cut with cut_sparsity and offer it, unless the
  /// tracker proves it cannot beat the best (sparsest_cut.h).
  void consider(const Graph& g, const TrafficMatrix& tm,
                const CutTracker& cut) {
    if (cut.sparsity_cannot_beat(sparsity)) return;
    offer(cut_sparsity(g, tm, cut.side()), cut.side());
  }
};

CutResult finish(Best best, const char* method,
                 CutBound bound = CutBound::Upper) {
  CutResult r;
  r.sparsity = best.sparsity;
  r.side = std::move(best.side);
  r.method = method;
  r.bound = bound;
  return r;
}

}  // namespace

double cut_sparsity(const Graph& g, const TrafficMatrix& tm,
                    const std::vector<std::uint8_t>& side) {
  double cap_fwd = 0.0;   // arcs S -> S~
  double cap_rev = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    const std::uint8_t su = side[static_cast<std::size_t>(g.edge_u(e))];
    const std::uint8_t sv = side[static_cast<std::size_t>(g.edge_v(e))];
    if (su != sv) {
      cap_fwd += g.edge_cap(e);
      cap_rev += g.edge_cap(e);
    }
  }
  double dem_fwd = 0.0;  // demand S -> S~ (S = side 0)
  double dem_rev = 0.0;
  for (const Demand& d : tm.demands) {
    const std::uint8_t ss = side[static_cast<std::size_t>(d.src)];
    const std::uint8_t sd = side[static_cast<std::size_t>(d.dst)];
    if (ss == sd) continue;
    if (ss == 0) {
      dem_fwd += d.amount;
    } else {
      dem_rev += d.amount;
    }
  }
  double best = kInf;
  if (dem_fwd > 0.0) best = std::min(best, cap_fwd / dem_fwd);
  if (dem_rev > 0.0) best = std::min(best, cap_rev / dem_rev);
  return best;
}

CutResult sparsest_cut_brute_force(const Graph& g, const TrafficMatrix& tm,
                                   long max_cuts) {
  const int n = g.num_nodes();
  Best best;
  CutTracker cut(g, &tm);
  // Node n-1 pinned to side 1 to halve the space; the other n-1 nodes'
  // side-1 set is a mask. Its 2^(n-1) - 1 proper cuts are every mask but
  // all-ones (the whole node set, no cut): masks 1 .. 2^(n-1) - 2 in binary
  // counting order, then mask 0 (node n-1 alone) last, so that a tie keeps
  // an earlier winner. Capped at max_cuts.
  const long total =
      n - 1 >= 62 ? std::numeric_limits<long>::max()
                  : (1L << (n - 1)) - 1;
  const long cuts = std::min(total, max_cuts);
  cut.flip(n - 1);
  // mask never has bits at or above 63 set, so nodes beyond bit 62 stay on
  // side 0. Stepping from mask-1 to mask flips exactly the bits of
  // mask ^ (mask-1): two per step, amortised.
  for (long mask = 1; mask <= std::min(cuts, total - 1); ++mask) {
    for (auto diff = static_cast<unsigned long>(mask ^ (mask - 1)); diff != 0;
         diff &= diff - 1) {
      cut.flip(std::countr_zero(diff));
    }
    best.consider(g, tm, cut);
  }
  if (cuts == total && total > 0) {
    cut.clear();
    cut.flip(n - 1);
    best.consider(g, tm, cut);
  }
  return finish(std::move(best), "brute-force",
                total <= max_cuts ? CutBound::Exact : CutBound::Upper);
}

CutResult sparsest_cut_one_node(const Graph& g, const TrafficMatrix& tm) {
  const int n = g.num_nodes();
  Best best;
  CutTracker cut(g, &tm);
  for (int v = 0; v < n; ++v) {
    cut.flip(v);
    best.consider(g, tm, cut);
    cut.clear();
  }
  return finish(std::move(best), "one-node");
}

CutResult sparsest_cut_two_node(const Graph& g, const TrafficMatrix& tm) {
  const int n = g.num_nodes();
  Best best;
  CutTracker cut(g, &tm);
  for (int u = 0; u < n; ++u) {
    cut.flip(u);
    for (int v = u + 1; v < n; ++v) {
      cut.flip(v);
      best.consider(g, tm, cut);
      cut.flip(v);
    }
    cut.clear();
  }
  return finish(std::move(best), "two-node");
}

CutResult sparsest_cut_expanding(const Graph& g, const TrafficMatrix& tm) {
  const int n = g.num_nodes();
  Best best;
  CutTracker cut(g, &tm);
  for (int v = 0; v < n; ++v) {
    const std::vector<int> dist = bfs_distances(g, v);
    // Balls up to the farthest node, excluding the whole node set. On a
    // disconnected graph the farthest is kUnreachable: stop after the ball
    // of the largest finite distance (v's component) instead.
    int max_finite = 0;
    bool all_reached = true;
    for (const int du : dist) {
      if (du == kUnreachable) {
        all_reached = false;
      } else {
        max_finite = std::max(max_finite, du);
      }
    }
    const int radii = all_reached ? max_finite : max_finite + 1;
    // The ball of radius r is the ball of radius r-1 plus the nodes at
    // distance exactly r.
    for (int radius = 0; radius < radii; ++radius) {
      for (int u = 0; u < n; ++u) {
        if (dist[static_cast<std::size_t>(u)] == radius) cut.flip(u);
      }
      best.consider(g, tm, cut);
    }
    cut.clear();
  }
  return finish(std::move(best), "expanding");
}

CutResult sparsest_cut_eigenvector(const Graph& g, const TrafficMatrix& tm) {
  const int n = g.num_nodes();
  // The normalized Laplacian is undefined at a node without capacity; such
  // a node is a component of its own, whose cut the other members price.
  for (int u = 0; u < n; ++u) {
    const auto arcs = g.out_arcs(u);
    if (std::none_of(arcs.begin(), arcs.end(),
                     [&g](int a) { return g.arc_cap(a) > 0.0; })) {
      return finish(Best{}, "eigenvector");
    }
  }
  const SpectralResult spec = fiedler_vector(g);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&spec](int a, int b) {
    return spec.vector[static_cast<std::size_t>(a)] <
           spec.vector[static_cast<std::size_t>(b)];
  });
  Best best;
  CutTracker cut(g, &tm);
  for (int prefix = 1; prefix < n; ++prefix) {
    cut.flip(order[static_cast<std::size_t>(prefix - 1)]);
    best.consider(g, tm, cut);
  }
  return finish(std::move(best), "eigenvector");
}

SparseCutSurvey best_sparse_cut(const Graph& g, const TrafficMatrix& tm,
                                long brute_force_cap, int st_pairs,
                                std::uint64_t seed,
                                const flow::FlowOptions& flow) {
  SparseCutSurvey survey;
  std::vector<CutResult> results;
  results.push_back(sparsest_cut_brute_force(g, tm, brute_force_cap));
  results.push_back(sparsest_cut_one_node(g, tm));
  results.push_back(sparsest_cut_two_node(g, tm));
  results.push_back(sparsest_cut_expanding(g, tm));
  results.push_back(sparsest_cut_eigenvector(g, tm));
  results.push_back(sparsest_cut_st_mincut(g, tm, st_pairs, seed, flow));

  survey.best.sparsity = kInf;
  for (const CutResult& r : results) {
    survey.per_method.emplace_back(r.method, r.sparsity);
    survey.flow_stats.add(r.flow_stats);
    if (r.sparsity < survey.best.sparsity) survey.best = r;
  }
  // An exact member certifies the true optimum; the winning value then IS
  // that optimum (nothing can come in lower), whichever method found it. So
  // does a best of 0: no cut is sparser.
  bool certified = survey.best.sparsity == 0.0;
  for (const CutResult& r : results) {
    if (r.bound == CutBound::Exact) certified = true;
    if (r.sparsity <= survey.best.sparsity * (1.0 + 1e-9)) {
      survey.winners.push_back(r.method);
    }
  }
  survey.best.method = survey.winners.empty() ? "none" : survey.winners.front();
  survey.best.bound = certified ? CutBound::Exact : CutBound::Upper;
  return survey;
}

}  // namespace tb::cuts
