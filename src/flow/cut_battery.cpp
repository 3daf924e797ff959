#include "flow/cut_battery.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace tb::flow {

CutBattery::CutBattery(const Graph& g, const FlowOptions& opts)
    : opts_(opts), proto_(g) {}

std::vector<StCut> CutBattery::solve(
    const std::vector<std::pair<int, int>>& pairs) const {
  std::vector<StCut> out(pairs.size());
  if (pairs.empty()) return out;
  ThreadPool* const pool = ThreadPool::resolve(opts_.threads);
  // Pair blocks track the pair count (never the pool size): enough tasks
  // to saturate a small pool, few enough that each task's residual copy
  // amortizes over its pairs. The shape cannot reach results — each solve
  // starts from an exact reset — so it is free to balance load.
  const std::size_t per_block =
      std::max<std::size_t>(1, (pairs.size() + 15) / 16);
  const std::size_t blocks = (pairs.size() + per_block - 1) / per_block;
  const auto run_block = [&](std::size_t b) {
    FlowNetwork net = proto_;  // task-local residuals over the shared graph
    const std::size_t lo = b * per_block;
    const std::size_t hi = std::min(lo + per_block, pairs.size());
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = st_min_cut(net, pairs[i].first, pairs[i].second);
    }
  };
  if (pool != nullptr && blocks > 1) {
    pool->parallel_for(0, blocks, run_block);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) run_block(b);
  }
  return out;
}

int CutBattery::best_index(const std::vector<StCut>& cuts, double tolerance) {
  int best = -1;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    if (best < 0 || cuts[i].value < cuts[static_cast<std::size_t>(best)].value) {
      best = static_cast<int>(i);
      if (cuts[static_cast<std::size_t>(best)].value <= tolerance) break;
    }
  }
  return best;
}

}  // namespace tb::flow
