// Test-local Dinic max flow: BFS level graph + DFS blocking flow with
// current-arc pointers. Deliberately simple and built on the public
// FlowNetwork and Graph APIs only, so it shares no logic with the push-relabel engine in
// flow/max_flow.cpp that the tests cross-check against it.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "flow/flow_network.h"

namespace tb::test_ref {

class Dinic {
 public:
  Dinic(flow::FlowNetwork& net, int s, int t)
      : net_(net),
        s_(s),
        t_(t),
        tol_(net.tolerance()),
        level_(static_cast<std::size_t>(net.num_nodes()), -1),
        current_(static_cast<std::size_t>(net.num_nodes()), 0) {}

  /// Maximum s-t flow value; leaves the max flow in `net`'s residuals.
  double run() {
    double total = 0.0;
    while (build_levels()) {
      std::fill(current_.begin(), current_.end(), 0);
      for (;;) {
        const double pushed =
            augment(s_, std::numeric_limits<double>::infinity());
        if (pushed <= tol_) break;
        total += pushed;
        ++augmenting_paths_;
      }
    }
    return total;
  }

  /// Blocking-flow augmentations performed by run().
  long augmenting_paths() const noexcept { return augmenting_paths_; }

 private:
  bool build_levels() {
    std::fill(level_.begin(), level_.end(), -1);
    level_[static_cast<std::size_t>(s_)] = 0;
    std::vector<int> queue{s_};
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const int u = queue[i];
      for (const int a : net_.graph().out_arcs(u)) {
        const int v = net_.graph().arc_to(a);
        if (level_[static_cast<std::size_t>(v)] < 0 &&
            net_.residual(a) > tol_) {
          level_[static_cast<std::size_t>(v)] =
              level_[static_cast<std::size_t>(u)] + 1;
          queue.push_back(v);
        }
      }
    }
    return level_[static_cast<std::size_t>(t_)] >= 0;
  }

  double augment(int u, double limit) {
    if (u == t_) return limit;
    const std::span<const int> arcs = net_.graph().out_arcs(u);
    for (; current_[static_cast<std::size_t>(u)] <
           static_cast<int>(arcs.size());
         ++current_[static_cast<std::size_t>(u)]) {
      const int a = arcs[static_cast<std::size_t>(
          current_[static_cast<std::size_t>(u)])];
      const int v = net_.graph().arc_to(a);
      if (net_.residual(a) <= tol_ ||
          level_[static_cast<std::size_t>(v)] !=
              level_[static_cast<std::size_t>(u)] + 1) {
        continue;
      }
      const double d = augment(v, std::min(limit, net_.residual(a)));
      if (d > tol_) {
        net_.push(a, d);
        return d;
      }
    }
    return 0.0;
  }

  flow::FlowNetwork& net_;
  const int s_;
  const int t_;
  const double tol_;
  std::vector<int> level_;
  std::vector<int> current_;
  long augmenting_paths_ = 0;
};

/// Dinic max-flow value of `net` between s and t (mutates `net`).
inline double dinic_max_flow(flow::FlowNetwork& net, int s, int t) {
  return Dinic(net, s, t).run();
}

}  // namespace tb::test_ref
