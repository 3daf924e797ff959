#include "flow/max_flow.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace tb::flow {
namespace {

/// Highest-label push-relabel, run to completion: after the main loop every
/// node but s and t has zero excess, so the residual state is a valid
/// maximum flow (not just a maximum preflow) and min-cut extraction can
/// trust per-arc flows. Heights live in [0, 2n]; 2n marks nodes the global
/// relabel found unreachable from both terminals in the residual graph.
class HighestLabelSolver {
 public:
  HighestLabelSolver(FlowNetwork& net, int s, int t, MaxFlowStats& stats)
      : net_(net),
        g_(net.graph()),
        s_(s),
        t_(t),
        stats_(stats),
        n_(net.num_nodes()),
        tol_(net.tolerance()),
        height_(static_cast<std::size_t>(n_), 0),
        excess_(static_cast<std::size_t>(n_), 0.0),
        current_(static_cast<std::size_t>(n_), 0),
        active_(static_cast<std::size_t>(n_), 0),
        count_(static_cast<std::size_t>(2 * n_) + 1, 0),
        buckets_(static_cast<std::size_t>(2 * n_) + 1) {
    // Global relabel when the accumulated relabel work passes this; the
    // usual linear-in-graph-size budget keeps rebuilds amortized O(1).
    work_limit_ = 12 * static_cast<long>(n_) + 2 * net_.num_arcs();
  }

  double run() {
    const std::span<const int> arcs = g_.out_arcs(s_);
    const std::span<const int> heads = g_.out_heads(s_);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const double d = net_.residual(arcs[i]);
      if (d > tol_) {
        net_.push(arcs[i], d);
        excess_[static_cast<std::size_t>(heads[i])] += d;
        ++stats_.pushes;
      }
    }
    global_relabel();
    while (highest_ >= 0) {
      auto& bucket = buckets_[static_cast<std::size_t>(highest_)];
      if (bucket.empty()) {
        --highest_;
        continue;
      }
      const int u = bucket.back();
      bucket.pop_back();
      active_[static_cast<std::size_t>(u)] = 0;
      if (excess_[static_cast<std::size_t>(u)] <= tol_) continue;
      if (height_[static_cast<std::size_t>(u)] != highest_) {
        activate(u);  // moved by a gap jump; requeue at its real height
        continue;
      }
      discharge(u);
      if (work_ >= work_limit_) {
        work_ = 0;
        global_relabel();
      }
    }
    return excess_[static_cast<std::size_t>(t_)];
  }

 private:
  void activate(int v) {
    if (v == s_ || v == t_ || active_[static_cast<std::size_t>(v)]) return;
    const int h = height_[static_cast<std::size_t>(v)];
    if (h >= 2 * n_) return;  // parked: unreachable from both terminals
    active_[static_cast<std::size_t>(v)] = 1;
    buckets_[static_cast<std::size_t>(h)].push_back(v);
    if (h > highest_) highest_ = h;
  }

  void discharge(int u) {
    const std::span<const int> arcs = g_.out_arcs(u);
    const std::span<const int> heads = g_.out_heads(u);
    while (excess_[static_cast<std::size_t>(u)] > tol_) {
      if (current_[static_cast<std::size_t>(u)] >=
          static_cast<int>(arcs.size())) {
        relabel(u);
        if (height_[static_cast<std::size_t>(u)] >= 2 * n_) return;
        current_[static_cast<std::size_t>(u)] = 0;
        continue;
      }
      const auto i =
          static_cast<std::size_t>(current_[static_cast<std::size_t>(u)]);
      const int a = arcs[i];
      const int v = heads[i];
      if (net_.residual(a) > tol_ &&
          height_[static_cast<std::size_t>(u)] ==
              height_[static_cast<std::size_t>(v)] + 1) {
        const double d =
            std::min(excess_[static_cast<std::size_t>(u)], net_.residual(a));
        net_.push(a, d);
        excess_[static_cast<std::size_t>(u)] -= d;
        excess_[static_cast<std::size_t>(v)] += d;
        ++stats_.pushes;
        if (excess_[static_cast<std::size_t>(v)] > tol_) activate(v);
      } else {
        ++current_[static_cast<std::size_t>(u)];
      }
    }
  }

  void relabel(int u) {
    ++stats_.relabels;
    const std::span<const int> arcs = g_.out_arcs(u);
    const std::span<const int> heads = g_.out_heads(u);
    work_ += static_cast<long>(arcs.size()) + 12;
    const int old_h = height_[static_cast<std::size_t>(u)];
    int min_h = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (net_.residual(arcs[i]) > tol_) {
        min_h = std::min(min_h, height_[static_cast<std::size_t>(heads[i])]);
      }
    }
    const int new_h =
        min_h == std::numeric_limits<int>::max() ? 2 * n_
                                                 : std::min(min_h + 1, 2 * n_);
    --count_[static_cast<std::size_t>(old_h)];
    height_[static_cast<std::size_t>(u)] = new_h;
    ++count_[static_cast<std::size_t>(new_h)];
    if (count_[static_cast<std::size_t>(old_h)] == 0 && old_h < n_) {
      lift_above_gap(old_h);
    }
  }

  /// Gap heuristic: no node left at height h < n means no residual path
  /// from any node above h to the sink; lift them past n in one sweep.
  /// Nodes sitting in active buckets go stale and are requeued on pop.
  void lift_above_gap(int h) {
    ++stats_.gap_jumps;
    for (int v = 0; v < n_; ++v) {
      const int hv = height_[static_cast<std::size_t>(v)];
      if (hv > h && hv < n_) {
        --count_[static_cast<std::size_t>(hv)];
        height_[static_cast<std::size_t>(v)] = n_ + 1;
        ++count_[static_cast<std::size_t>(n_) + 1];
        current_[static_cast<std::size_t>(v)] = 0;
      }
    }
  }

  /// Exact heights from residual BFS: distance to t below n, n + distance
  /// to s for nodes cut off from t, 2n for nodes cut off from both.
  /// Rebuilds the height counts and the active buckets from scratch.
  void global_relabel() {
    ++stats_.global_relabels;
    const int unreached = 2 * n_;
    std::fill(height_.begin(), height_.end(), unreached);
    std::vector<int> queue;
    queue.reserve(static_cast<std::size_t>(n_));

    // An arc a = (u -> v) admits backward traversal v -> u in the residual
    // graph iff its reverse a^1 = (v -> u) has residual capacity, so both
    // terminal BFS passes expand over out_arcs checking the paired arc.
    const auto backward_bfs = [&](int root, int base) {
      height_[static_cast<std::size_t>(root)] = base;
      queue.clear();
      queue.push_back(root);
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const int u = queue[i];
        const std::span<const int> arcs = g_.out_arcs(u);
        const std::span<const int> heads = g_.out_heads(u);
        for (std::size_t j = 0; j < arcs.size(); ++j) {
          const int v = heads[j];
          if (height_[static_cast<std::size_t>(v)] == unreached &&
              net_.residual(Graph::reverse_arc(arcs[j])) > tol_ && v != s_) {
            height_[static_cast<std::size_t>(v)] =
                height_[static_cast<std::size_t>(u)] + 1;
            queue.push_back(v);
          }
        }
      }
    };
    backward_bfs(t_, 0);  // the v != s_ guard pins the source height to n
    backward_bfs(s_, n_);

    std::fill(count_.begin(), count_.end(), 0);
    for (int v = 0; v < n_; ++v) {
      ++count_[static_cast<std::size_t>(height_[static_cast<std::size_t>(v)])];
    }
    std::fill(current_.begin(), current_.end(), 0);
    std::fill(active_.begin(), active_.end(), 0);
    for (auto& bucket : buckets_) bucket.clear();
    highest_ = -1;
    for (int v = 0; v < n_; ++v) {
      if (excess_[static_cast<std::size_t>(v)] > tol_) activate(v);
    }
  }

  FlowNetwork& net_;
  const Graph& g_;
  const int s_;
  const int t_;
  MaxFlowStats& stats_;
  const int n_;
  const double tol_;
  std::vector<int> height_;
  std::vector<double> excess_;
  std::vector<int> current_;
  std::vector<std::uint8_t> active_;
  std::vector<int> count_;
  std::vector<std::vector<int>> buckets_;
  int highest_ = -1;
  long work_ = 0;
  long work_limit_ = 0;
};

}  // namespace

double max_flow(FlowNetwork& net, int s, int t, MaxFlowStats* stats) {
  const int n = net.num_nodes();
  if (s < 0 || s >= n || t < 0 || t >= n || s == t) {
    throw std::invalid_argument("max_flow: bad terminals");
  }
  MaxFlowStats local;
  return HighestLabelSolver(net, s, t, stats != nullptr ? *stats : local)
      .run();
}

}  // namespace tb::flow
