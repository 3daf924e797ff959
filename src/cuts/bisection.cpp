#include "cuts/bisection.h"

#include <limits>
#include <utility>
#include <vector>

#include "cuts/cut_tracker.h"
#include "cuts/exact_cuts.h"
#include "flow/cut_battery.h"
#include "flow/min_cut.h"
#include "graph/partition.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tb::cuts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using detail::CutTracker;

/// Enumerate all balanced subsets containing node 0 (to halve the space)
/// and call visit(cut) with the tracker on each; every recursion step sets
/// or unsets one node.
template <typename Visit>
void for_each_balanced(CutTracker& cut, int n, Visit&& visit) {
  const int half = n / 2;
  int members = 0;  // nodes on side 1, node 0 always on side 0
  const auto rec = [&](auto&& self, int next) -> void {
    if (members == half) {
      visit(cut);
      return;
    }
    if (n - next < half - members) return;
    for (int v = next; v < n; ++v) {
      ++members;
      cut.flip(v);
      self(self, v + 1);
      cut.flip(v);
      --members;
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
    CutTracker tracker(g, &tm);
    for_each_balanced(tracker, n, [&](const CutTracker& cut) {
      if (cut.sparsity_cannot_beat(best.sparsity)) return;
      const double s = cut_sparsity(g, tm, cut.side());
      if (s < best.sparsity) {
        best.sparsity = s;
        best.side = cut.side();
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
    CutTracker tracker(g, nullptr);
    for_each_balanced(tracker, n, [&](const CutTracker& cut) {
      if (cut.capacity_cannot_beat(best)) return;
      const double c = cut_capacity(g, cut.side());
      if (c < best) best = c;
    });
    return best;
  }
  return min_bisection(g, kl_restarts, seed).cut_capacity;
}

}  // namespace tb::cuts
