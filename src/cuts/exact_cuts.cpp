#include "cuts/exact_cuts.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "flow/cut_battery.h"
#include "flow/min_cut.h"
#include "util/rng.h"

namespace tb::cuts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<std::pair<int, int>> distinct_demand_pairs(
    const TrafficMatrix& tm) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(tm.demands.size());
  for (const Demand& d : tm.demands) {
    if (d.src == d.dst || d.amount <= 0.0) continue;
    pairs.emplace_back(std::min(d.src, d.dst), std::max(d.src, d.dst));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

std::vector<std::pair<int, int>> sample_demand_pairs(
    std::vector<std::pair<int, int>> pairs, int max_pairs,
    std::uint64_t seed) {
  if (pairs.size() <= static_cast<std::size_t>(max_pairs)) return pairs;
  Rng rng(seed);
  std::vector<int> keep =
      rng.sample_without_replacement(static_cast<int>(pairs.size()), max_pairs);
  std::sort(keep.begin(), keep.end());
  std::vector<std::pair<int, int>> sampled;
  sampled.reserve(keep.size());
  for (const int i : keep) sampled.push_back(pairs[static_cast<std::size_t>(i)]);
  return sampled;
}

CutResult sparsest_cut_st_mincut(const Graph& g, const TrafficMatrix& tm,
                                 int max_pairs, std::uint64_t seed,
                                 const flow::FlowOptions& flow) {
  CutResult best;
  best.method = "st-mincut";
  best.sparsity = kInf;
  std::vector<std::pair<int, int>> pairs = distinct_demand_pairs(tm);
  const bool single_pair = pairs.size() == 1;
  pairs = sample_demand_pairs(std::move(pairs), max_pairs, seed);
  // Exact needs the single pair to have actually been cut (st_pairs = 0
  // legally skips the member, which must not certify anything).
  best.bound =
      single_pair && !pairs.empty() ? CutBound::Exact : CutBound::Upper;
  if (pairs.empty()) return best;
  const std::vector<flow::StCut> cuts = flow::CutBattery(g, flow).solve(pairs);
  for (const flow::StCut& cut : cuts) {
    best.flow_stats.add(cut.stats);
    // cut_sparsity wants 0/1 membership; orientation is immaterial (it
    // takes the min over both directions).
    const double sparsity = cut_sparsity(g, tm, cut.source_side);
    if (sparsity < best.sparsity) {
      best.sparsity = sparsity;
      best.side = cut.source_side;
    }
  }
  return best;
}

}  // namespace tb::cuts
