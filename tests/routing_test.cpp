#include <gtest/gtest.h>

#include "decompose.h"
#include "mcf/garg_konemann.h"
#include "mcf/routing.h"
#include "mcf/throughput.h"
#include "tm/synthetic.h"
#include "topo/fattree.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"

namespace tb {
namespace {

Graph ring(int n) {
  Graph g(n);
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  g.finalize();
  return g;
}

TEST(Routing, SinglePathUsesOnePath) {
  // Ring of 6, single demand 0 -> 3: single path routing picks one side,
  // throughput 1; ECMP splits across both 3-hop sides, throughput 2.
  const Graph g = ring(6);
  TrafficMatrix tm;
  tm.demands = {{0, 3, 1.0}};
  const auto sp = mcf::single_path_throughput(g, tm);
  const auto ecmp = mcf::ecmp_throughput(g, tm);
  EXPECT_NEAR(sp.throughput, 1.0, 1e-12);
  EXPECT_NEAR(ecmp.throughput, 2.0, 1e-12);
}

TEST(Routing, EcmpSplitsPerHopNotPerPath) {
  // Diamond: 0-1, 0-2, 1-3, 2-3 plus a direct long way 0-4-3. ECMP on
  // shortest DAG (2 hops via 1 or 2) halves the load per branch.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(0, 4);
  g.add_edge(4, 3);
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 3, 1.0}};
  const auto ecmp = mcf::ecmp_throughput(g, tm);
  // Three 2-hop shortest paths (via 1, 2, 4): each carries 1/3.
  EXPECT_NEAR(ecmp.max_congestion, 1.0 / 3.0, 1e-12);
}

TEST(Routing, SchemesNeverBeatOptimalLp) {
  for (const std::uint64_t seed : {3ULL, 5ULL, 9ULL}) {
    const Network jf = make_jellyfish(16, 4, 1, seed);
    const TrafficMatrix tm = random_matching(jf, 1, seed + 50);
    const double opt = mcf::throughput_exact_lp(jf.graph, tm).throughput;
    const double sp = mcf::single_path_throughput(jf.graph, tm).throughput;
    const double ecmp = mcf::ecmp_throughput(jf.graph, tm).throughput;
    const double vlb = mcf::vlb_throughput(jf.graph, tm).throughput;
    EXPECT_LE(sp, opt * (1.0 + 1e-9)) << seed;
    EXPECT_LE(ecmp, opt * (1.0 + 1e-9)) << seed;
    EXPECT_LE(vlb, opt * (1.0 + 1e-9)) << seed;
  }
}

TEST(Routing, EcmpBeatsSinglePathPerDemand) {
  // For a SINGLE demand, even per-hop splitting can only lower the maximum
  // arc load (every ECMP arc carries <= the full demand that single-path
  // puts on its one path). With multiple demands the comparison can go
  // either way — see the routing-gap ablation bench — so the invariant is
  // only asserted per-demand here.
  const Network jf = make_jellyfish(18, 4, 1, 15);
  for (int t = 1; t < 10; ++t) {
    TrafficMatrix tm;
    tm.demands = {{0, t, 1.0}};
    const double sp = mcf::single_path_throughput(jf.graph, tm).throughput;
    const double ecmp = mcf::ecmp_throughput(jf.graph, tm).throughput;
    EXPECT_GE(ecmp, sp * (1.0 - 1e-9)) << "dst " << t;
  }
}

TEST(Routing, EcmpAchievesFatTreeOptimum) {
  // Fat tree + per-ToR LM: ECMP's even split saturates the k/2 uplinks,
  // matching the LP optimum of k/2 exactly.
  const Network ft = make_fat_tree(4);
  const TrafficMatrix tm = longest_matching(ft);
  const auto ecmp = mcf::ecmp_throughput(ft.graph, tm);
  EXPECT_NEAR(ecmp.throughput, 2.0, 1e-9);
  const auto sp = mcf::single_path_throughput(ft.graph, tm);
  EXPECT_LT(sp.throughput, ecmp.throughput);  // one uplink pinned
}

TEST(Routing, VlbHonorsTheorem2Mechanics) {
  // VLB throughput >= (ECMP A2A throughput) / 2 * (1 - tol): the two-hop
  // construction behind Theorem 2, instantiated with ECMP legs.
  for (const std::uint64_t seed : {7ULL, 11ULL}) {
    const Network jf = make_jellyfish(20, 4, 1, seed);
    const TrafficMatrix lm = longest_matching(jf);
    const double vlb = mcf::vlb_throughput(jf.graph, lm).throughput;
    const double a2a_ecmp =
        mcf::ecmp_throughput(jf.graph, all_to_all(jf)).throughput;
    EXPECT_GE(vlb, a2a_ecmp / 2.0 * (1.0 - 1e-9)) << seed;
  }
}

TEST(Routing, VlbIsTmInsensitiveOnVertexTransitiveGraphs) {
  // VLB's whole point: its load depends only on row/col sums. Two very
  // different unit-row TMs must get identical VLB throughput.
  const Network hc = make_hypercube(4);
  const double t1 =
      mcf::vlb_throughput(hc.graph, longest_matching(hc)).throughput;
  const double t2 =
      mcf::vlb_throughput(hc.graph, random_matching(hc, 1, 3)).throughput;
  EXPECT_NEAR(t1, t2, 1e-9);
}

TEST(Decompose, SinglePathFlowRoundTrips) {
  const Graph g = ring(6);
  TrafficMatrix tm;
  tm.demands = {{0, 3, 1.0}};
  const auto sp = mcf::single_path_throughput(g, tm);
  const auto paths = mcf::decompose_flow(g, 0, sp.arc_load);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].arcs.size(), 3u);
  EXPECT_NEAR(paths[0].amount, 1.0, 1e-12);
}

TEST(Decompose, EcmpFlowSplitsIntoTwoPaths) {
  const Graph g = ring(6);
  TrafficMatrix tm;
  tm.demands = {{0, 3, 1.0}};
  const auto ecmp = mcf::ecmp_throughput(g, tm);
  const auto paths = mcf::decompose_flow(g, 0, ecmp.arc_load);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NEAR(paths[0].amount + paths[1].amount, 1.0, 1e-12);
  EXPECT_NEAR(mcf::mean_path_length(paths), 3.0, 1e-12);
}

TEST(Decompose, CancelsCycles) {
  // Inject a pure cycle on top of a path flow; decomposition must return
  // only the path.
  Graph g(4);
  const int e01 = g.add_edge(0, 1);
  const int e12 = g.add_edge(1, 2);
  const int e23 = g.add_edge(2, 3);
  const int e13 = g.add_edge(1, 3);
  g.finalize();
  std::vector<double> flow(static_cast<std::size_t>(g.num_arcs()), 0.0);
  flow[static_cast<std::size_t>(2 * e01)] = 1.0;  // 0->1
  flow[static_cast<std::size_t>(2 * e13)] = 1.0;  // 1->3
  // cycle 1->2->3->1 (3->1 is reverse arc of e13): add 0.5
  flow[static_cast<std::size_t>(2 * e12)] += 0.5;
  flow[static_cast<std::size_t>(2 * e23)] += 0.5;
  flow[static_cast<std::size_t>(2 * e13 + 1)] += 0.5;
  const auto paths = mcf::decompose_flow(g, 0, flow);
  double total = 0.0;
  for (const auto& p : paths) total += p.amount;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Decompose, GkFlowDecomposesWithinCapacity) {
  const Network jf = make_jellyfish(16, 4, 1, 3);
  TrafficMatrix tm;
  tm.demands = {{0, 9, 1.0}};
  const mcf::GkResult r = mcf::GkSolver(jf.graph).solve(tm);
  // Extract only commodity flow from source 0 (single source, so all).
  const auto paths = mcf::decompose_flow(jf.graph, 0, r.arc_flow);
  double total = 0.0;
  for (const auto& p : paths) {
    total += p.amount;
    // Every path must end at the sink.
    EXPECT_EQ(jf.graph.arc_to(p.arcs.back()), 9);
  }
  EXPECT_NEAR(total, r.throughput, r.throughput * 0.05 + 1e-6);
}

}  // namespace
}  // namespace tb
