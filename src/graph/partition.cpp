#include "graph/partition.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/rng.h"

namespace tb {

double cut_capacity(const Graph& g, const std::vector<std::uint8_t>& side) {
  double cut = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    if (side[static_cast<std::size_t>(g.edge_u(e))] !=
        side[static_cast<std::size_t>(g.edge_v(e))]) {
      cut += g.edge_cap(e);
    }
  }
  return cut;
}

namespace {

/// Gain of moving v to the other side: (internal cost) - (external cost).
double move_gain(const Graph& g, const std::vector<std::uint8_t>& side, int v) {
  double internal = 0.0;
  double external = 0.0;
  for (const int a : g.out_arcs(v)) {
    const int w = g.arc_to(a);
    if (side[static_cast<std::size_t>(w)] == side[static_cast<std::size_t>(v)]) {
      internal += g.arc_cap(a);
    } else {
      external += g.arc_cap(a);
    }
  }
  return external - internal;
}

}  // namespace

double kernighan_lin_refine(const Graph& g, std::vector<std::uint8_t>& side,
                            int max_passes) {
  assert(g.finalized());
  const int n = g.num_nodes();
  double best_cut = cut_capacity(g, side);
  std::vector<double> gain_b(static_cast<std::size_t>(n), 0.0);
  std::vector<double> w_a(static_cast<std::size_t>(n), 0.0);  // w(a, .)

  for (int pass = 0; pass < max_passes; ++pass) {
    // One KL pass: greedily swap the best (a in 0-side, b in 1-side) pair,
    // lock both, repeat; then roll back to the best prefix of swaps.
    std::vector<std::uint8_t> locked(static_cast<std::size_t>(n), 0);
    std::vector<std::pair<int, int>> swaps;
    std::vector<double> cut_after;
    std::vector<std::uint8_t> work = side;
    double cut = best_cut;

    const int rounds = n / 2;
    for (int r = 0; r < rounds; ++r) {
      // Pick the best unlocked pair (a on side 0, b on side 1) by combined
      // gain ga + gb - 2 w(a,b); ties go to the first pair in (a, b) order.
      // gb is computed once per round, and a's edge weights to every b
      // come from one scan of out_arcs(a) in arc order: the same sums, in
      // the same order, as summing per pair.
      for (int b = 0; b < n; ++b) {
        if (!locked[static_cast<std::size_t>(b)] &&
            work[static_cast<std::size_t>(b)] == 1) {
          gain_b[static_cast<std::size_t>(b)] = move_gain(g, work, b);
        }
      }
      int best_a = -1;
      int best_b = -1;
      double best_gain = -std::numeric_limits<double>::infinity();
      for (int a = 0; a < n; ++a) {
        if (locked[static_cast<std::size_t>(a)] ||
            work[static_cast<std::size_t>(a)] != 0) {
          continue;
        }
        const double ga = move_gain(g, work, a);
        for (const int arc : g.out_arcs(a)) {
          w_a[static_cast<std::size_t>(g.arc_to(arc))] += g.arc_cap(arc);
        }
        for (int b = 0; b < n; ++b) {
          if (locked[static_cast<std::size_t>(b)] ||
              work[static_cast<std::size_t>(b)] != 1) {
            continue;
          }
          const double gain = ga + gain_b[static_cast<std::size_t>(b)] -
                              2.0 * w_a[static_cast<std::size_t>(b)];
          if (gain > best_gain) {
            best_gain = gain;
            best_a = a;
            best_b = b;
          }
        }
        for (const int arc : g.out_arcs(a)) {
          w_a[static_cast<std::size_t>(g.arc_to(arc))] = 0.0;
        }
      }
      if (best_a < 0) break;
      work[static_cast<std::size_t>(best_a)] = 1;
      work[static_cast<std::size_t>(best_b)] = 0;
      locked[static_cast<std::size_t>(best_a)] = 1;
      locked[static_cast<std::size_t>(best_b)] = 1;
      cut -= best_gain;
      swaps.emplace_back(best_a, best_b);
      cut_after.push_back(cut);
    }

    // Best prefix.
    int best_prefix = -1;
    double pass_best = best_cut;
    for (std::size_t i = 0; i < cut_after.size(); ++i) {
      if (cut_after[i] < pass_best - 1e-12) {
        pass_best = cut_after[i];
        best_prefix = static_cast<int>(i);
      }
    }
    if (best_prefix < 0) break;  // no improvement this pass
    for (int i = 0; i <= best_prefix; ++i) {
      side[static_cast<std::size_t>(swaps[static_cast<std::size_t>(i)].first)] = 1;
      side[static_cast<std::size_t>(swaps[static_cast<std::size_t>(i)].second)] = 0;
    }
    best_cut = pass_best;
  }
  return best_cut;
}

BipartitionResult min_bisection(const Graph& g, int restarts,
                                std::uint64_t seed) {
  assert(g.finalized());
  const int n = g.num_nodes();
  Rng rng(seed);
  BipartitionResult best;
  best.cut_capacity = std::numeric_limits<double>::infinity();

  for (int r = 0; r < restarts; ++r) {
    std::vector<int> perm = rng.permutation(n);
    std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 0);
    for (int i = n / 2; i < n; ++i) {
      side[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = 1;
    }
    const double cut = kernighan_lin_refine(g, side);
    if (cut < best.cut_capacity) {
      best.cut_capacity = cut;
      best.side = std::move(side);
    }
  }
  return best;
}

}  // namespace tb
