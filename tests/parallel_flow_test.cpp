// The flow-level half of the PR-5 determinism contract: the CutBattery and
// every estimator built on it must be BITWISE identical to their serial
// counterparts at every thread count. Every assertion here compares
// exact doubles (EXPECT_EQ, never _NEAR) — "close" would hide a scheduling
// leak. Suites are named ParallelFlow* so the tsan preset picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/registry.h"
#include "cuts/bisection.h"
#include "cuts/exact_cuts.h"
#include "cuts/sparsest_cut.h"
#include "dinic_reference.h"
#include "flow/cut_battery.h"
#include "flow/flow_network.h"
#include "flow/max_flow.h"
#include "flow/min_cut.h"
#include "pool_test_env.h"
#include "tm/synthetic.h"
#include "topo/jellyfish.h"
#include "util/rng.h"

namespace tb {
namespace {

using flow::CutBattery;
using flow::FlowNetwork;
using flow::FlowOptions;
using flow::MaxFlowStats;
using flow::StCut;

// Make the shared pool genuinely parallel before anything touches it.
[[maybe_unused]] const int kForcePoolThreads = test_env::force_pool_threads();

/// Connected random multigraph: a path backbone plus `extra` random edges
/// with capacities in [0.25, 2).
Graph random_graph(int n, int extra, std::uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (int v = 0; v + 1 < n; ++v) {
    g.add_edge(v, v + 1, 0.25 + 1.75 * rng.next_double());
  }
  for (int e = 0; e < extra; ++e) {
    const int u = static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(n)));
    int v = static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(n)));
    if (u == v) v = (v + 1) % n;
    g.add_edge(u, v, 0.25 + 1.75 * rng.next_double());
  }
  g.finalize();
  return g;
}

void expect_stats_eq(const MaxFlowStats& a, const MaxFlowStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.pushes, b.pushes) << what;
  EXPECT_EQ(a.relabels, b.relabels) << what;
  EXPECT_EQ(a.global_relabels, b.global_relabels) << what;
  EXPECT_EQ(a.gap_jumps, b.gap_jumps) << what;
}

void expect_cut_eq(const StCut& a, const StCut& b, const std::string& what) {
  EXPECT_EQ(a.value, b.value) << what;  // exact, not near
  EXPECT_EQ(a.cut_capacity, b.cut_capacity) << what;
  EXPECT_EQ(a.source_side, b.source_side) << what;
  EXPECT_EQ(a.cut_edges, b.cut_edges) << what;
  expect_stats_eq(a.stats, b.stats, what);
}

/// `v` in C99 hexfloat ("%a"), so a failed bit-exact comparison shows
/// every bit, in the same notation as the expected literals.
std::string hexfloat(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over `n` bytes, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The thread configurations every equivalence below must agree across:
/// serial, the shared pool, and dedicated pools of 2 and 4 workers.
std::vector<int> thread_ladder() { return {1, 0, 2, 4}; }

/// Serial reference for the battery's global min cut: one reused network,
/// pairs (0, t) in order, the first strict minimum wins, and the loop
/// stops at a zero cut (nothing can beat it).
StCut serial_global_min_cut(const Graph& g) {
  FlowNetwork net(g);
  bool have_best = false;
  StCut best;
  for (int t = 1; t < g.num_nodes(); ++t) {
    StCut cut = flow::st_min_cut(net, 0, t);
    if (!have_best || cut.value < best.value) {
      best = std::move(cut);
      have_best = true;
      if (best.value <= net.tolerance()) break;
    }
  }
  return best;
}

TEST(ParallelFlow, StMinCutBitwiseAcrossThreadCounts) {
  for (const Family f : all_families()) {
    const Network net = family_representative(f, 16, /*seed=*/7);
    const Graph& g = net.graph;
    const int s = 0;
    const int t = g.num_nodes() - 1;
    // A fresh-network st_min_cut is the reference for every battery slot,
    // whichever task's reused residual copy solves it.
    const StCut fresh = flow::st_min_cut(g, s, t);
    const std::vector<std::pair<int, int>> pairs(3, {s, t});
    for (const int threads : thread_ladder()) {
      const std::vector<StCut> cuts = CutBattery(g, {threads}).solve(pairs);
      for (const StCut& cut : cuts) {
        expect_cut_eq(cut, fresh,
                      family_name(f) + " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ParallelFlow, GlobalMinCutBitwiseAcrossThreadCounts) {
  for (const Family f : all_families()) {
    const Network net = family_representative(f, 16, /*seed=*/7);
    const Graph& g = net.graph;
    const StCut reference = serial_global_min_cut(g);
    for (const int threads : thread_ladder()) {
      FlowOptions fo;
      fo.threads = threads;
      // The battery solves every pair the serial loop may have skipped
      // after an early zero-cut break, but the selected cut (stats
      // included) must be the identical first minimum.
      expect_cut_eq(flow::global_min_cut(g, fo), reference,
                    family_name(f) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelFlow, BestSparseCutBitwiseAcrossThreadCounts) {
  for (const Family f : all_families()) {
    const Network net = family_representative(f, 16, /*seed=*/7);
    const TrafficMatrix tm = all_to_all(net);
    const cuts::SparseCutSurvey serial =
        cuts::best_sparse_cut(net.graph, tm, 2'000, 6, 1);
    for (const int threads : thread_ladder()) {
      FlowOptions fo;
      fo.threads = threads;
      const cuts::SparseCutSurvey survey =
          cuts::best_sparse_cut(net.graph, tm, 2'000, 6, 1, fo);
      const std::string what =
          family_name(f) + " threads=" + std::to_string(threads);
      EXPECT_EQ(survey.best.sparsity, serial.best.sparsity) << what;
      EXPECT_EQ(survey.best.side, serial.best.side) << what;
      EXPECT_EQ(survey.best.method, serial.best.method) << what;
      EXPECT_EQ(survey.best.bound, serial.best.bound) << what;
      EXPECT_EQ(survey.per_method, serial.per_method) << what;
      EXPECT_EQ(survey.winners, serial.winners) << what;
      expect_stats_eq(survey.flow_stats, serial.flow_stats, what);
    }
  }
}

TEST(ParallelFlow, BisectionBitwiseAcrossThreadCounts) {
  const Network net = family_representative(Family::Jellyfish, 48, /*seed=*/3);
  const TrafficMatrix tm = all_to_all(net);
  ASSERT_GT(net.graph.num_nodes(), 18);  // KL + st-seeded path, not exact
  const cuts::CutResult serial = cuts::bisection_sparsity(net.graph, tm);
  for (const int threads : thread_ladder()) {
    FlowOptions fo;
    fo.threads = threads;
    const cuts::CutResult r =
        cuts::bisection_sparsity(net.graph, tm, 18, 8, 1, 4, fo);
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(r.sparsity, serial.sparsity) << what;
    EXPECT_EQ(r.side, serial.side) << what;
    EXPECT_EQ(r.bound, serial.bound) << what;
  }
}

TEST(ParallelFlow, BatteryMatchesSerialLoop) {
  const Graph g = random_graph(36, 90, /*seed=*/11);
  Rng rng(99);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 23; ++i) {  // deliberately not a multiple of a block
    const int s = static_cast<int>(rng.next_u64(36));
    int t = static_cast<int>(rng.next_u64(36));
    if (s == t) t = (t + 1) % 36;
    pairs.emplace_back(s, t);
  }
  // Reference: the pre-battery idiom — one reused network, serial loop.
  FlowNetwork net(g);
  std::vector<StCut> loop;
  for (const auto& [s, t] : pairs) {
    loop.push_back(flow::st_min_cut(net, s, t));
  }
  for (const int threads : thread_ladder()) {
    FlowOptions fo;
    fo.threads = threads;
    const std::vector<StCut> cuts = CutBattery(g, fo).solve(pairs);
    ASSERT_EQ(cuts.size(), loop.size());
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      expect_cut_eq(cuts[i], loop[i],
                    "pair " + std::to_string(i) + " threads=" +
                        std::to_string(threads));
    }
  }
}

TEST(ParallelFlow, BestIndexMatchesSerialSelection) {
  const Graph g = random_graph(20, 40, /*seed=*/5);
  std::vector<std::pair<int, int>> pairs;
  for (int t = 1; t < g.num_nodes(); ++t) pairs.emplace_back(0, t);
  const CutBattery battery(g);
  const std::vector<StCut> cuts = battery.solve(pairs);
  const int best = CutBattery::best_index(cuts, battery.tolerance());
  ASSERT_GE(best, 0);
  // First strict minimum: nothing before it is as small.
  for (int i = 0; i < best; ++i) {
    EXPECT_GT(cuts[static_cast<std::size_t>(i)].value,
              cuts[static_cast<std::size_t>(best)].value);
  }
  expect_cut_eq(cuts[static_cast<std::size_t>(best)],
                serial_global_min_cut(g), "best_index vs serial loop");
  EXPECT_EQ(CutBattery::best_index({}, battery.tolerance()), -1);
}

TEST(ParallelFlow, TouchedArcResetRestoresCapacitiesExactly) {
  const Graph g = random_graph(30, 80, /*seed=*/21);
  FlowNetwork net(g);
  (void)flow::max_flow(net, 0, g.num_nodes() - 1);
  net.reset();
  for (int a = 0; a < net.num_arcs(); ++a) {
    EXPECT_EQ(net.residual(a), net.capacity(a)) << "arc " << a;
  }
  // A reused (reset) network must be indistinguishable from a fresh one.
  FlowNetwork fresh(g);
  MaxFlowStats reused_stats;
  MaxFlowStats fresh_stats;
  const double reused = flow::max_flow(net, 1, 7, &reused_stats);
  const double first = flow::max_flow(fresh, 1, 7, &fresh_stats);
  EXPECT_EQ(reused, first);
  expect_stats_eq(reused_stats, fresh_stats, "reused vs fresh");
  for (int a = 0; a < net.num_arcs(); ++a) {
    EXPECT_EQ(net.residual(a), fresh.residual(a)) << "arc " << a;
  }
}

TEST(ParallelFlow, LargeInstanceAgreesWithDinicAndIsBitwiseAcrossThreads) {
  // At least 8192 arcs: larger than any registry ladder instance.
  const Network jf = make_jellyfish(1024, 8, 1, /*seed=*/7);
  const Graph& g = jf.graph;
  ASSERT_GE(g.num_arcs(), 8192);
  Rng rng(41);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 12; ++i) {
    const int s = static_cast<int>(rng.next_u64(1024));
    int t = static_cast<int>(rng.next_u64(1024));
    if (s == t) t = (t + 1) % 1024;
    pairs.emplace_back(s, t);
  }
  const std::vector<StCut> serial = CutBattery(g, {1}).solve(pairs);
  ASSERT_EQ(serial.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // The battery's cut (certified by st_min_cut) against an independent
    // max flow.
    FlowNetwork di_net(g);
    const double di_value =
        test_ref::dinic_max_flow(di_net, pairs[i].first, pairs[i].second);
    EXPECT_NEAR(serial[i].value, di_value, 1e-9 * (1.0 + di_value))
        << "pair " << i;
  }
  for (const int threads : {0, 4}) {
    const std::vector<StCut> cuts = CutBattery(g, {threads}).solve(pairs);
    ASSERT_EQ(cuts.size(), serial.size());
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      expect_cut_eq(cuts[i], serial[i],
                    "pair " + std::to_string(i) + " threads=" +
                        std::to_string(threads));
    }
  }
}

TEST(ParallelFlow, CountersAndCutBitsArePinned) {
  // Pins the battery's push-relabel trajectory across commits: summed work
  // counters, the bits of every cut value and every source side, over the
  // A2A demand pairs of four ~64-server instances, serial and on the
  // shared pool. A change that moves a trajectory updates these values
  // and says why.
  struct Case {
    Family family;
    long pushes;
    long relabels;
    long global_relabels;
    long gap_jumps;
    double min_value;
    double sum_value;
    std::uint64_t value_hash;
    std::uint64_t side_hash;
  };
  const Case cases[] = {
      {Family::Jellyfish, 79212, 19319, 2016, 0, 0x1p+3, 0x1.f8p+13,
       0xa9fd17127e2c7325ULL, 0xaa1a45eece4530a5ULL},
      {Family::FatTree, 1728, 0, 153, 0, 0x1.8p+1, 0x1.cbp+8,
       0xe8013c24e563803dULL, 0x943a759b73044fa4ULL},
      {Family::SlimFly, 27483, 1404, 1225, 0, 0x1.cp+2, 0x1.0bf8p+13,
       0x1e955c42aec5dd09ULL, 0x79307a9c01448704ULL},
      {Family::Hypercube, 131514, 36842, 2016, 0, 0x1.8p+2, 0x1.7ap+13,
       0xc856fe2d464d3f25ULL, 0xaa1a45eece4530a5ULL},
  };
  for (const Case& c : cases) {
    const Network net = family_representative(c.family, 64, /*seed=*/1);
    const std::vector<std::pair<int, int>> pairs =
        cuts::distinct_demand_pairs(all_to_all(net));
    ASSERT_FALSE(pairs.empty());
    for (const int threads : {1, 0}) {
      SCOPED_TRACE(family_name(c.family) + " threads=" +
                   std::to_string(threads));
      const std::vector<StCut> cuts =
          CutBattery(net.graph, {threads}).solve(pairs);
      ASSERT_EQ(cuts.size(), pairs.size());
      MaxFlowStats total;
      double min_value = cuts.front().value;
      double sum_value = 0.0;
      std::uint64_t value_hash = 0xcbf29ce484222325ULL;
      std::uint64_t side_hash = 0xcbf29ce484222325ULL;
      for (const StCut& cut : cuts) {
        total.add(cut.stats);
        min_value = std::min(min_value, cut.value);
        sum_value += cut.value;
        std::uint64_t bits = 0;
        std::memcpy(&bits, &cut.value, sizeof bits);
        value_hash = fnv1a(value_hash, &bits, sizeof bits);
        side_hash =
            fnv1a(side_hash, cut.source_side.data(), cut.source_side.size());
      }
      EXPECT_EQ(total.pushes, c.pushes);
      EXPECT_EQ(total.relabels, c.relabels);
      EXPECT_EQ(total.global_relabels, c.global_relabels);
      EXPECT_EQ(total.gap_jumps, c.gap_jumps);
      EXPECT_EQ(hexfloat(min_value), hexfloat(c.min_value));
      EXPECT_EQ(hexfloat(sum_value), hexfloat(c.sum_value));
      EXPECT_EQ(value_hash, c.value_hash);
      EXPECT_EQ(side_hash, c.side_hash);
    }
  }
}

TEST(ParallelFlow, CutUpperBoundThreadsNeverChangeTheBound) {
  const Network net = family_representative(Family::Hypercube, 16, /*seed=*/7);
  const TrafficMatrix tm = all_to_all(net);
  CutBoundOptions base;
  base.solver_threads = 1;
  const CutBoundResult serial = cut_upper_bound(net.graph, tm, base);
  for (const int threads : thread_ladder()) {
    CutBoundOptions opts;
    opts.solver_threads = threads;
    const CutBoundResult r = cut_upper_bound(net.graph, tm, opts);
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(r.bound, serial.bound) << what;
    EXPECT_EQ(r.method, serial.method) << what;
    EXPECT_EQ(r.kind, serial.kind) << what;
    expect_stats_eq(r.flow_stats, serial.flow_stats, what);
  }
}

}  // namespace
}  // namespace tb
