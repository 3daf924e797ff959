#include "flow/max_flow.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace tb::flow {
namespace {

/// FlowAlgo::Auto switches to the parallel-discharge engine at this arc
/// count. Grounded by the BM_StMaxFlow* micro benches on the registry's
/// largest finalized topology: below this the round machinery's extra
/// full-graph passes dominate, and the serial highest-label fast path wins.
constexpr int kParallelDischargeMinArcs = 8192;

/// Highest-label push-relabel, run to completion: after the main loop every
/// node but s and t has zero excess, so the residual state is a valid
/// maximum flow (not just a maximum preflow) and min-cut extraction can
/// trust per-arc flows. Heights live in [0, 2n]; 2n marks nodes the global
/// relabel found unreachable from both terminals in the residual graph.
class HighestLabelSolver {
 public:
  HighestLabelSolver(FlowNetwork& net, int s, int t, MaxFlowStats& stats)
      : net_(net),
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
    for (const int a : net_.out_arcs(s_)) {
      const double d = net_.residual(a);
      if (d > tol_) {
        net_.push(a, d);
        excess_[static_cast<std::size_t>(net_.arc_to(a))] += d;
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
    const std::span<const int> arcs = net_.out_arcs(u);
    while (excess_[static_cast<std::size_t>(u)] > tol_) {
      if (current_[static_cast<std::size_t>(u)] >=
          static_cast<int>(arcs.size())) {
        relabel(u);
        if (height_[static_cast<std::size_t>(u)] >= 2 * n_) return;
        current_[static_cast<std::size_t>(u)] = 0;
        continue;
      }
      const int a = arcs[static_cast<std::size_t>(
          current_[static_cast<std::size_t>(u)])];
      const int v = net_.arc_to(a);
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
    work_ += static_cast<long>(net_.out_arcs(u).size()) + 12;
    const int old_h = height_[static_cast<std::size_t>(u)];
    int min_h = std::numeric_limits<int>::max();
    for (const int a : net_.out_arcs(u)) {
      if (net_.residual(a) > tol_) {
        min_h = std::min(min_h, height_[static_cast<std::size_t>(net_.arc_to(a))]);
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
        for (const int a : net_.out_arcs(u)) {
          const int v = net_.arc_to(a);
          if (height_[static_cast<std::size_t>(v)] == unreached &&
              net_.residual(FlowNetwork::reverse_arc(a)) > tol_ && v != s_) {
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

/// Round-synchronous parallel-discharge push-relabel (Snippet 2's
/// lock-light pattern rebuilt under the PR-5 determinism rules). Each
/// round freezes heights and excesses, then runs two phases:
///
///  * push phase — the active nodes, ascending, are split into fixed
///    blocks of kDischargeBlock (a partition that depends only on the
///    instance state, never on the thread count). Each block discharges
///    its nodes in order, recording pushes as per-arc deltas instead of
///    mutating the network: arc tails are unique, so a node owns every
///    delta slot it writes and blocks never conflict. A node that runs
///    out of admissible arcs becomes a relabel requester.
///  * serial push merge — blocks in block order, touched arcs in
///    discharge order: apply each delta to the network and the excesses.
///    Every cross-block effect (excess sums, stats) happens here, on one
///    thread, in a fixed order — FP-deterministic by construction.
///  * relabel phase + serial merge — requesters re-check admissibility
///    against the merged residuals (a reverse push can re-open an arc;
///    relabeling past an admissible arc would break the height
///    invariant), then compute new heights from the frozen ones.
///    Concurrent relabels against frozen heights are safe: labels only
///    increase, so validity h(u) <= h(v)+1 is preserved arc by arc.
///
/// Pushes use frozen heights and no heights change within a push phase,
/// so every applied push is admissible at application time; the label
/// function stays a valid distance labeling and the run terminates with
/// a maximum flow exactly like the serial engine. The worker pool only
/// decides which thread runs a block — results are bitwise identical for
/// any thread count, including a null pool (serial execution).
class ParallelDischargeSolver {
 public:
  ParallelDischargeSolver(FlowNetwork& net, int s, int t, MaxFlowStats& stats,
                          ThreadPool* pool)
      : net_(net),
        s_(s),
        t_(t),
        stats_(stats),
        pool_(pool),
        n_(net.num_nodes()),
        tol_(net.tolerance()),
        height_(static_cast<std::size_t>(n_), 0),
        excess_(static_cast<std::size_t>(n_), 0.0),
        current_(static_cast<std::size_t>(n_), 0),
        new_height_(static_cast<std::size_t>(n_), 0),
        delta_(static_cast<std::size_t>(net.num_arcs()), 0.0) {
    work_limit_ = 12 * static_cast<long>(n_) + 2 * net_.num_arcs();
  }

  double run() {
    for (const int a : net_.out_arcs(s_)) {
      const double d = net_.residual(a);
      if (d > tol_) {
        net_.push(a, d);
        excess_[static_cast<std::size_t>(net_.arc_to(a))] += d;
        ++stats_.pushes;
      }
    }
    global_relabel();
    std::vector<int> active;
    std::vector<int> requesters;
    for (;;) {
      if (work_ >= work_limit_) {
        work_ = 0;
        global_relabel();
      }
      active.clear();
      for (int v = 0; v < n_; ++v) {
        if (v == s_ || v == t_) continue;
        if (excess_[static_cast<std::size_t>(v)] > tol_ &&
            height_[static_cast<std::size_t>(v)] < 2 * n_) {
          active.push_back(v);
        }
      }
      if (active.empty()) break;
      push_round(active, requesters);
      relabel_round(requesters);
    }
    return excess_[static_cast<std::size_t>(t_)];
  }

 private:
  /// Nodes per block. Fixed: the block partition is part of the result
  /// contract (merge order follows it), so it must not track pool size.
  static constexpr std::size_t kDischargeBlock = 32;

  struct BlockScratch {
    std::vector<int> touched;     ///< arcs with a pending delta, push order
    std::vector<int> requesters;  ///< nodes that ran out of admissible arcs
    std::vector<int> relabeled;   ///< nodes with a pending height in new_height_
    long work = 0;                ///< relabel-phase scan work, merged in order
  };

  void for_blocks(std::size_t count) {
    if (pool_ != nullptr && count > 1) {
      pool_->parallel_for(0, count, [this](std::size_t b) { run_block(b); });
    } else {
      for (std::size_t b = 0; b < count; ++b) run_block(b);
    }
  }

  std::size_t prepare_blocks(std::size_t items) {
    const std::size_t count = (items + kDischargeBlock - 1) / kDischargeBlock;
    if (scratch_.size() < count) scratch_.resize(count);
    for (std::size_t b = 0; b < count; ++b) {
      scratch_[b].touched.clear();
      scratch_[b].requesters.clear();
      scratch_[b].relabeled.clear();
      scratch_[b].work = 0;
    }
    return count;
  }

  void run_block(std::size_t b) {
    const std::size_t lo = b * kDischargeBlock;
    const std::size_t hi = std::min(lo + kDischargeBlock, phase_items_->size());
    BlockScratch& blk = scratch_[b];
    for (std::size_t i = lo; i < hi; ++i) {
      const int u = (*phase_items_)[i];
      if (phase_ == Phase::Push) {
        discharge(u, blk);
      } else {
        consider_relabel(u, blk);
      }
    }
  }

  /// Push as much of u's frozen excess as its admissible arcs allow, into
  /// the delta buffer. Heights are frozen, so admissibility cannot change
  /// under us; residual headroom is residual minus our own pending delta
  /// (reverse-arc gains from other blocks are deliberately invisible until
  /// the merge — ignoring them is conservative, never wrong).
  void discharge(int u, BlockScratch& blk) {
    const std::span<const int> arcs = net_.out_arcs(u);
    double exc = excess_[static_cast<std::size_t>(u)];
    int cur = current_[static_cast<std::size_t>(u)];
    while (exc > tol_) {
      if (cur >= static_cast<int>(arcs.size())) {
        blk.requesters.push_back(u);
        break;
      }
      const int a = arcs[static_cast<std::size_t>(cur)];
      const int v = net_.arc_to(a);
      const double rc = net_.residual(a) - delta_[static_cast<std::size_t>(a)];
      if (rc > tol_ && height_[static_cast<std::size_t>(u)] ==
                           height_[static_cast<std::size_t>(v)] + 1) {
        const double d = std::min(exc, rc);
        if (delta_[static_cast<std::size_t>(a)] == 0.0) blk.touched.push_back(a);
        delta_[static_cast<std::size_t>(a)] += d;
        exc -= d;
        if (rc - d <= tol_) ++cur;  // saturated; a non-saturating push drains exc
      } else {
        ++cur;
      }
    }
    current_[static_cast<std::size_t>(u)] = cur;
  }

  /// Relabel decision for a requester, against the merged residuals and the
  /// frozen heights. The push merge can re-open an arc at or after the
  /// current pointer (arcs before it cannot be admissible while u's height
  /// is unchanged — the standard current-arc invariant); relabeling past it
  /// would violate label validity, so rewind to it instead.
  void consider_relabel(int u, BlockScratch& blk) {
    const std::span<const int> arcs = net_.out_arcs(u);
    blk.work += static_cast<long>(arcs.size()) + 12;
    for (int c = current_[static_cast<std::size_t>(u)];
         c < static_cast<int>(arcs.size()); ++c) {
      const int a = arcs[static_cast<std::size_t>(c)];
      if (net_.residual(a) > tol_ &&
          height_[static_cast<std::size_t>(u)] ==
              height_[static_cast<std::size_t>(net_.arc_to(a))] + 1) {
        current_[static_cast<std::size_t>(u)] = c;
        return;
      }
    }
    int min_h = std::numeric_limits<int>::max();
    for (const int a : arcs) {
      if (net_.residual(a) > tol_) {
        min_h =
            std::min(min_h, height_[static_cast<std::size_t>(net_.arc_to(a))]);
      }
    }
    new_height_[static_cast<std::size_t>(u)] =
        min_h == std::numeric_limits<int>::max() ? 2 * n_
                                                 : std::min(min_h + 1, 2 * n_);
    blk.relabeled.push_back(u);
  }

  void push_round(const std::vector<int>& active,
                  std::vector<int>& requesters) {
    phase_ = Phase::Push;
    phase_items_ = &active;
    const std::size_t blocks = prepare_blocks(active.size());
    for_blocks(blocks);
    // Serial ordered merge: the only writer of the network, the excesses
    // and the stats. Block order then push order fixes every FP sum.
    requesters.clear();
    for (std::size_t b = 0; b < blocks; ++b) {
      BlockScratch& blk = scratch_[b];
      for (const int a : blk.touched) {
        const double d = delta_[static_cast<std::size_t>(a)];
        net_.push(a, d);
        excess_[static_cast<std::size_t>(net_.arc_from(a))] -= d;
        excess_[static_cast<std::size_t>(net_.arc_to(a))] += d;
        delta_[static_cast<std::size_t>(a)] = 0.0;
        ++stats_.pushes;
      }
      requesters.insert(requesters.end(), blk.requesters.begin(),
                        blk.requesters.end());
    }
  }

  void relabel_round(const std::vector<int>& requesters) {
    if (requesters.empty()) return;
    phase_ = Phase::Relabel;
    phase_items_ = &requesters;
    const std::size_t blocks = prepare_blocks(requesters.size());
    for_blocks(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      BlockScratch& blk = scratch_[b];
      for (const int u : blk.relabeled) {
        height_[static_cast<std::size_t>(u)] =
            new_height_[static_cast<std::size_t>(u)];
        current_[static_cast<std::size_t>(u)] = 0;
        ++stats_.relabels;
      }
      work_ += blk.work;
    }
  }

  /// Exact heights from residual BFS, identical to the serial engine's:
  /// distance to t below n, n + distance to s for nodes cut off from t,
  /// 2n for nodes cut off from both. Serial — it runs between rounds.
  void global_relabel() {
    ++stats_.global_relabels;
    const int unreached = 2 * n_;
    std::fill(height_.begin(), height_.end(), unreached);
    std::vector<int> queue;
    queue.reserve(static_cast<std::size_t>(n_));
    const auto backward_bfs = [&](int root, int base) {
      height_[static_cast<std::size_t>(root)] = base;
      queue.clear();
      queue.push_back(root);
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const int u = queue[i];
        for (const int a : net_.out_arcs(u)) {
          const int v = net_.arc_to(a);
          if (height_[static_cast<std::size_t>(v)] == unreached &&
              net_.residual(FlowNetwork::reverse_arc(a)) > tol_ && v != s_) {
            height_[static_cast<std::size_t>(v)] =
                height_[static_cast<std::size_t>(u)] + 1;
            queue.push_back(v);
          }
        }
      }
    };
    backward_bfs(t_, 0);
    backward_bfs(s_, n_);
    std::fill(current_.begin(), current_.end(), 0);
  }

  enum class Phase { Push, Relabel };

  FlowNetwork& net_;
  const int s_;
  const int t_;
  MaxFlowStats& stats_;
  ThreadPool* const pool_;  ///< null = serial
  const int n_;
  const double tol_;
  std::vector<int> height_;
  std::vector<double> excess_;
  std::vector<int> current_;
  std::vector<int> new_height_;
  std::vector<double> delta_;
  std::vector<BlockScratch> scratch_;
  const std::vector<int>* phase_items_ = nullptr;
  Phase phase_ = Phase::Push;
  long work_ = 0;
  long work_limit_ = 0;
};

/// Reference Dinic: simple by design, used to cross-check HighestLabel.
class DinicSolver {
 public:
  DinicSolver(FlowNetwork& net, int s, int t, MaxFlowStats& stats)
      : net_(net),
        s_(s),
        t_(t),
        stats_(stats),
        n_(net.num_nodes()),
        tol_(net.tolerance()),
        level_(static_cast<std::size_t>(n_), -1),
        current_(static_cast<std::size_t>(n_), 0) {}

  double run() {
    double total = 0.0;
    while (build_levels()) {
      std::fill(current_.begin(), current_.end(), 0);
      for (;;) {
        const double pushed =
            augment(s_, std::numeric_limits<double>::infinity());
        if (pushed <= tol_) break;
        total += pushed;
        ++stats_.augmenting_paths;
      }
    }
    return total;
  }

 private:
  bool build_levels() {
    std::fill(level_.begin(), level_.end(), -1);
    level_[static_cast<std::size_t>(s_)] = 0;
    std::vector<int> queue{s_};
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const int u = queue[i];
      for (const int a : net_.out_arcs(u)) {
        const int v = net_.arc_to(a);
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
    const std::span<const int> arcs = net_.out_arcs(u);
    for (; current_[static_cast<std::size_t>(u)] <
           static_cast<int>(arcs.size());
         ++current_[static_cast<std::size_t>(u)]) {
      const int a = arcs[static_cast<std::size_t>(
          current_[static_cast<std::size_t>(u)])];
      const int v = net_.arc_to(a);
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

  FlowNetwork& net_;
  const int s_;
  const int t_;
  MaxFlowStats& stats_;
  const int n_;
  const double tol_;
  std::vector<int> level_;
  std::vector<int> current_;
};

}  // namespace

bool parallel_discharge_cutoff(const FlowNetwork& net) {
  return net.num_arcs() >= kParallelDischargeMinArcs;
}

FlowAlgo resolve_flow_algo(const FlowNetwork& net, FlowAlgo algo) {
  if (algo != FlowAlgo::Auto) return algo;
  return parallel_discharge_cutoff(net) ? FlowAlgo::ParallelDischarge
                                        : FlowAlgo::HighestLabel;
}

double max_flow(FlowNetwork& net, int s, int t, const FlowOptions& opts,
                MaxFlowStats* stats) {
  if (!net.finalized()) {
    throw std::invalid_argument("max_flow: network not finalized");
  }
  const int n = net.num_nodes();
  if (s < 0 || s >= n || t < 0 || t >= n || s == t) {
    throw std::invalid_argument("max_flow: bad terminals");
  }
  MaxFlowStats local;
  MaxFlowStats& st = stats != nullptr ? *stats : local;
  switch (resolve_flow_algo(net, opts.algo)) {
    case FlowAlgo::HighestLabel:
      return HighestLabelSolver(net, s, t, st).run();
    case FlowAlgo::Dinic:
      return DinicSolver(net, s, t, st).run();
    case FlowAlgo::ParallelDischarge:
      return ParallelDischargeSolver(net, s, t, st,
                                     ThreadPool::resolve(opts.threads))
          .run();
    case FlowAlgo::Auto:
      break;  // resolve_flow_algo never returns Auto
  }
  throw std::invalid_argument("max_flow: unknown algorithm");
}

}  // namespace tb::flow
