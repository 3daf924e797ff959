// Incremental pricing of one cut, private to src/cuts (and its tests).
//
// CutTracker holds a 0/1 side per node and, for that side, running sums of
// the crossing capacity and of the crossing demand in each direction.
// Flipping node v costs O(deg(v) + demands at v). Each sum carries a
// rigorous bound on its floating-point drift from the exact real value, so
// the enumerations of sparsest_cut.cpp and bisection.cpp can skip a
// candidate when the bound proves that its from-scratch price
// (cut_sparsity / cut_capacity) cannot come in below the best so far. The
// bound and its proof are in sparsest_cut.h; the tracked sums themselves
// never reach a result.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "tm/traffic_matrix.h"

namespace tb::cuts::detail {

class CutTracker {
 public:
  /// Every node on side 0. Tracks crossing demand only when `tm` is non-null
  /// (the demand-free tracker prices capacity alone).
  CutTracker(const Graph& g, const TrafficMatrix* tm) : g_(g) {
    const int n = g.num_nodes();
    const auto un = static_cast<std::size_t>(n);
    side_.assign(un, 0);
    cap_slack_.assign(un, 0.0);
    for (int v = 0; v < n; ++v) {
      double incident = 0.0;
      for (const int a : g.out_arcs(v)) incident += g.arc_cap(a);
      cap_slack_[static_cast<std::size_t>(v)] = slack(incident, g.degree(v));
    }
    std::size_t terms = static_cast<std::size_t>(g.num_edges());
    dem_begin_.assign(un + 1, 0);
    dem_slack_.assign(un, 0.0);
    if (tm != nullptr) {
      terms += tm->demands.size();
      // Demand lists per node: count, prefix-sum, fill (in tm order).
      for (const Demand& d : tm->demands) {
        // The proof needs non-negative finite terms; otherwise price all.
        if (!(d.amount >= 0.0 && d.amount < kInf)) prunable_ = false;
        if (d.src == d.dst) continue;  // never crosses
        ++dem_begin_[static_cast<std::size_t>(d.src) + 1];
        ++dem_begin_[static_cast<std::size_t>(d.dst) + 1];
      }
      for (std::size_t v = 0; v < un; ++v) dem_begin_[v + 1] += dem_begin_[v];
      dem_.resize(static_cast<std::size_t>(dem_begin_[un]));
      std::vector<int> fill(dem_begin_.begin(), dem_begin_.end() - 1);
      for (const Demand& d : tm->demands) {
        if (d.src == d.dst) continue;
        dem_[static_cast<std::size_t>(fill[static_cast<std::size_t>(d.src)]++)] =
            {d.dst, 1, d.amount};
        dem_[static_cast<std::size_t>(fill[static_cast<std::size_t>(d.dst)]++)] =
            {d.src, 0, d.amount};
      }
      for (std::size_t v = 0; v < un; ++v) {
        double incident = 0.0;
        for (int k = dem_begin_[v]; k < dem_begin_[v + 1]; ++k) {
          incident += dem_[static_cast<std::size_t>(k)].amount;
        }
        dem_slack_[v] = slack(incident, dem_begin_[v + 1] - dem_begin_[v]);
      }
    }
    // K = 1 + (E + P + 8) * 2^-52, E edges and P demands: see sparsest_cut.h.
    factor_ = 1.0 + static_cast<double>(terms + 8) * kTwoU;
  }

  const std::vector<std::uint8_t>& side() const { return side_; }

  /// Move node v to the other side.
  void flip(int v) {
    const auto vi = static_cast<std::size_t>(v);
    const std::uint8_t s = side_[vi];
    const std::span<const int> arcs = g_.out_arcs(v);
    const std::span<const int> heads = g_.out_heads(v);
    double dc = 0.0;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const double c = g_.arc_cap(arcs[i]);
      dc += side_[static_cast<std::size_t>(heads[i])] == s ? c : -c;
    }
    cap_sum_ += dc;
    cap_err_ += cap_slack_[vi] + std::abs(cap_sum_) * kTwoU;
    if (dem_begin_[vi] != dem_begin_[vi + 1]) {
      // A demand's direction is its source's side (0: side 0 -> side 1).
      // It starts crossing when its other end shares v's old side, with the
      // source then on side s ^ v_is_src; otherwise it stops crossing, its
      // source having been on side s ^ v_is_src ^ 1.
      double d[2] = {0.0, 0.0};
      for (int k = dem_begin_[vi]; k < dem_begin_[vi + 1]; ++k) {
        const Entry& e = dem_[static_cast<std::size_t>(k)];
        const int dir = s ^ e.v_is_src;
        if (side_[static_cast<std::size_t>(e.other)] == s) {
          d[dir] += e.amount;
        } else {
          d[dir ^ 1] -= e.amount;
        }
      }
      for (int dir = 0; dir < 2; ++dir) {
        dem_sum_[dir] += d[dir];
        dem_err_[dir] += dem_slack_[vi] + std::abs(dem_sum_[dir]) * kTwoU;
      }
    }
    side_[vi] = static_cast<std::uint8_t>(s ^ 1);
  }

  /// Every node back to side 0; the sums are then exactly zero.
  void clear() {
    side_.assign(side_.size(), 0);
    cap_sum_ = cap_err_ = 0.0;
    dem_sum_[0] = dem_sum_[1] = dem_err_[0] = dem_err_[1] = 0.0;
  }

  /// Tracked crossing capacity (each direction carries the same) and the
  /// bound on its distance from the exact real sum.
  double capacity() const { return cap_sum_; }
  double capacity_error() const { return cap_err_; }
  /// Tracked crossing demand, dir 0 from side 0 to side 1, and its bound.
  double demand(int dir) const { return dem_sum_[dir]; }
  double demand_error(int dir) const { return dem_err_[dir]; }

  /// True only when cut_sparsity(g, *tm, side()) is provably not < best.
  bool sparsity_cannot_beat(double best) const {
    if (!prunable_ || !(best < kInf)) return false;
    const double lo = cap_sum_ - cap_err_;
    return lo >= kMinNormal &&
           lo >= best * (dem_sum_[0] + dem_err_[0]) * factor_ &&
           lo >= best * (dem_sum_[1] + dem_err_[1]) * factor_;
  }

  /// True only when cut_capacity(g, side()) is provably not < best.
  bool capacity_cannot_beat(double best) const {
    if (!(best < kInf)) return false;
    const double lo = cap_sum_ - cap_err_;
    return lo >= kMinNormal && lo >= best * factor_;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kMinNormal = std::numeric_limits<double>::min();
  static constexpr double kTwoU = 0x1p-52;  // twice the unit roundoff

  /// Twice the summation bound of one flip's local sum of `count` terms of
  /// total magnitude `incident`, plus a floor for an underflowed product.
  static double slack(double incident, int count) {
    return incident * static_cast<double>(count + 1) * kTwoU + kMinNormal;
  }

  struct Entry {
    int other = 0;            ///< the demand's other endpoint
    std::uint8_t v_is_src = 0;
    double amount = 0.0;
  };

  const Graph& g_;
  std::vector<std::uint8_t> side_;
  std::vector<double> cap_slack_;
  // Demands per node (CSR), each listed at both endpoints.
  std::vector<int> dem_begin_;
  std::vector<Entry> dem_;
  std::vector<double> dem_slack_;
  double cap_sum_ = 0.0;
  double cap_err_ = 0.0;
  double dem_sum_[2] = {0.0, 0.0};
  double dem_err_[2] = {0.0, 0.0};
  double factor_ = 1.0;
  bool prunable_ = true;
};

}  // namespace tb::cuts::detail
