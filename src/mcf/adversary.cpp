#include "mcf/adversary.h"

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mcf/engine.h"
#include "tm/synthetic.h"
#include "util/rng.h"

namespace tb::mcf {

namespace {

/// Relative margin a candidate must beat the incumbent by: 1e-9, the tie
/// rule best_sparse_cut uses for its winners. ExactLP returns one optimum
/// with a few ulps of rounding that depend on the TM, so a plain `<` would
/// accept a TM whose throughput equals the incumbent's up to that noise.
bool strictly_lower(double thr, double incumbent) {
  return thr < incumbent * (1.0 - 1e-9);
}

/// Aggregate the slot permutation into a switch-level TM: slot i (attached
/// to slot_node[i]) sends 1 unit to slot perm[i]'s switch; intra-switch
/// pairs carry no network traffic and drop out. std::map iteration gives
/// the canonical (src, dst) demand order.
TrafficMatrix tm_from_permutation(const std::vector<int>& slot_node,
                                  const std::vector<int>& perm) {
  std::map<std::pair<int, int>, double> agg;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const int u = slot_node[i];
    const int v = slot_node[static_cast<std::size_t>(perm[i])];
    if (u != v) agg[{u, v}] += 1.0;
  }
  TrafficMatrix tm;
  tm.name = "WorstCase";
  tm.demands.reserve(agg.size());
  for (const auto& [key, amount] : agg) {
    tm.demands.push_back({key.first, key.second, amount});
  }
  return tm;
}

}  // namespace

WorstCaseResult worst_case_matching(const Network& net,
                                    const WorstCaseOptions& opts) {
  if (opts.iterations < 0 || opts.restarts < 0) {
    throw std::invalid_argument(
        "worst_case_matching: negative iterations/restarts");
  }
  // One slot per attached server: the hose-model unit of the matching.
  std::vector<int> slot_node;
  for (int v = 0; v < net.graph.num_nodes(); ++v) {
    for (int s = 0; s < net.servers[static_cast<std::size_t>(v)]; ++s) {
      slot_node.push_back(v);
    }
  }
  if (slot_node.size() < 2) {
    throw std::invalid_argument("worst_case_matching: network needs servers");
  }
  const int slots = static_cast<int>(slot_node.size());

  ThroughputEngine engine(net);
  WorstCaseResult out;

  // The longest-matching heuristic is the published near-worst candidate;
  // it anchors the search and is the reported baseline.
  out.tm = longest_matching(net);
  out.initial = engine.solve(out.tm, opts.solve).throughput;
  out.throughput = out.initial;
  ++out.solves;

  for (int r = 0; r < opts.restarts; ++r) {
    Rng rng(mix_seed(opts.seed, static_cast<std::uint64_t>(r)));
    std::vector<int> perm = rng.permutation(slots);
    TrafficMatrix cur = tm_from_permutation(slot_node, perm);
    if (cur.demands.empty()) continue;  // all slots mapped intra-switch
    double cur_thr = engine.warm_solve(cur, opts.solve).throughput;
    ++out.solves;
    if (strictly_lower(cur_thr, out.throughput)) {
      out.throughput = cur_thr;
      out.tm = cur;
      ++out.improvements;
    }
    for (int it = 0; it < opts.iterations; ++it) {
      const int i = static_cast<int>(rng.next_u64(
          static_cast<std::uint64_t>(slots)));
      const int j = static_cast<int>(rng.next_u64(
          static_cast<std::uint64_t>(slots)));
      if (i == j) continue;
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(j)]);
      TrafficMatrix cand = tm_from_permutation(slot_node, perm);
      if (cand.demands.empty()) {
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(j)]);
        continue;
      }
      const double thr = engine.warm_solve(cand, opts.solve).throughput;
      ++out.solves;
      // Strict decrease only: ties (within the 1e-9 relative margin) and
      // regressions revert the swap, keeping the accepted trajectory
      // independent of float noise in equal solves.
      if (strictly_lower(thr, cur_thr)) {
        cur_thr = thr;
        cur = std::move(cand);
        ++out.improvements;
        if (strictly_lower(cur_thr, out.throughput)) {
          out.throughput = cur_thr;
          out.tm = cur;
        }
      } else {
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(j)]);
      }
    }
  }
  // The anchor may survive the whole search; the result is still the
  // search's answer, so it carries the search's name either way.
  out.tm.name = "WorstCase";
  return out;
}

}  // namespace tb::mcf
