#include "cuts/bisection.h"

#include <limits>
#include <utility>
#include <vector>

#include "cuts/exact_cuts.h"
#include "flow/cut_battery.h"
#include "flow/min_cut.h"
#include "graph/partition.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tb::cuts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Enumerate all balanced subsets containing node 0 (to halve the space)
/// and call visit(side).
template <typename Visit>
void for_each_balanced(int n, Visit&& visit) {
  const int half = n / 2;
  std::vector<int> members;  // nodes on side 1, node 0 always on side 0
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 0);
  const auto rec = [&](auto&& self, int next) -> void {
    if (static_cast<int>(members.size()) == half) {
      visit(side);
      return;
    }
    if (n - next < half - static_cast<int>(members.size())) return;
    for (int v = next; v < n; ++v) {
      members.push_back(v);
      side[static_cast<std::size_t>(v)] = 1;
      self(self, v + 1);
      side[static_cast<std::size_t>(v)] = 0;
      members.pop_back();
    }
  };
  rec(rec, 1);
}

/// Move the highest-gain node (external - internal capacity; ties to the
/// lowest id, so the repair is deterministic) from the oversized side until
/// side 1 holds exactly n/2 nodes.
void rebalance(const Graph& g, std::vector<std::uint8_t>& side) {
  const int n = g.num_nodes();
  const int target = n / 2;
  int ones = 0;
  for (const std::uint8_t s : side) ones += s;
  while (ones != target) {
    const std::uint8_t from = ones > target ? 1 : 0;
    int best_v = -1;
    double best_gain = -kInf;
    for (int v = 0; v < n; ++v) {
      if (side[static_cast<std::size_t>(v)] != from) continue;
      double gain = 0.0;
      for (const int a : g.out_arcs(v)) {
        const bool same = side[static_cast<std::size_t>(g.arc_to(a))] == from;
        gain += same ? -g.arc_cap(a) : g.arc_cap(a);
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_v = v;
      }
    }
    side[static_cast<std::size_t>(best_v)] =
        static_cast<std::uint8_t>(1 - from);
    ones += from ? -1 : 1;
  }
}

/// Sampled exact s-t min cuts rebalanced into bisections and KL-refined:
/// candidate partitions that random-restart KL tends to miss when the
/// bottleneck is far from every random start.
std::vector<std::vector<std::uint8_t>> st_seeded_bisections(
    const Graph& g, const TrafficMatrix& tm, int st_pairs, std::uint64_t seed,
    const flow::FlowOptions& flow, flow::MaxFlowStats& stats) {
  const std::vector<std::pair<int, int>> pairs = sample_demand_pairs(
      distinct_demand_pairs(tm), st_pairs, mix_seed(seed, 0x57C));
  std::vector<std::vector<std::uint8_t>> out(pairs.size());
  if (pairs.empty()) return out;
  const std::vector<flow::StCut> cuts = flow::CutBattery(g, flow).solve(pairs);
  for (const flow::StCut& cut : cuts) stats.add(cut.stats);
  // Each refinement writes only its own pair's slot, so the schedule
  // cannot reorder or mix candidates.
  const auto refine = [&](std::size_t i) {
    std::vector<std::uint8_t> side = cuts[i].source_side;
    rebalance(g, side);
    kernighan_lin_refine(g, side);
    out[i] = std::move(side);
  };
  ThreadPool* const pool = ThreadPool::resolve(flow.threads);
  if (pool != nullptr && out.size() > 1) {
    pool->parallel_for(0, out.size(), refine);
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) refine(i);
  }
  return out;
}

}  // namespace

CutResult bisection_sparsity(const Graph& g, const TrafficMatrix& tm,
                             int exact_max, int kl_restarts,
                             std::uint64_t seed, int st_pairs,
                             const flow::FlowOptions& flow) {
  const int n = g.num_nodes();
  CutResult best;
  best.method = "bisection";
  best.sparsity = kInf;
  if (n <= exact_max) {
    best.bound = CutBound::Exact;
    for_each_balanced(n, [&](const std::vector<std::uint8_t>& side) {
      const double s = cut_sparsity(g, tm, side);
      if (s < best.sparsity) {
        best.sparsity = s;
        best.side = side;
      }
    });
  } else {
    best.bound = CutBound::Upper;
    const BipartitionResult part = min_bisection(g, kl_restarts, seed);
    best.side = part.side;
    best.sparsity = cut_sparsity(g, tm, part.side);
    for (std::vector<std::uint8_t>& side : st_seeded_bisections(
             g, tm, st_pairs, seed, flow, best.flow_stats)) {
      const double s = cut_sparsity(g, tm, side);
      if (s < best.sparsity) {
        best.sparsity = s;
        best.side = std::move(side);
      }
    }
  }
  return best;
}

double bisection_capacity(const Graph& g, int exact_max, int kl_restarts,
                          std::uint64_t seed) {
  const int n = g.num_nodes();
  if (n <= exact_max) {
    double best = kInf;
    for_each_balanced(n, [&](const std::vector<std::uint8_t>& side) {
      const double c = cut_capacity(g, side);
      if (c < best) best = c;
    });
    return best;
  }
  return min_bisection(g, kl_restarts, seed).cut_capacity;
}

}  // namespace tb::cuts
