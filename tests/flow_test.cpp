// The src/flow/ correctness contract, cross-checked three ways per the
// subsystem's charter: max-flow equals min-cut capacity (verified cut
// extraction), the push-relabel engine agrees with the test-local Dinic
// reference (dinic_reference.h) on randomized instances, and
// single-commodity throughput from the ExactLP solver matches the
// combinatorial max flow.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "dinic_reference.h"
#include "flow/flow_network.h"
#include "flow/max_flow.h"
#include "flow/min_cut.h"
#include "graph/algorithms.h"
#include "mcf/throughput.h"
#include "tm/traffic_matrix.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "util/rng.h"

namespace tb {
namespace {

using flow::FlowNetwork;
using flow::MaxFlowStats;
using flow::StCut;
using test_ref::dinic_max_flow;

Graph path_graph(int n) {
  Graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  g.finalize();
  return g;
}

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

TEST(FlowNetwork, MirrorsGraphArcIds) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.finalize();
  const FlowNetwork net(g);
  EXPECT_EQ(&net.graph(), &g);
  ASSERT_EQ(net.num_nodes(), 3);
  ASSERT_EQ(net.num_arcs(), 4);
  for (int a = 0; a < net.num_arcs(); ++a) {
    EXPECT_EQ(net.capacity(a), g.arc_cap(a));
    EXPECT_EQ(net.residual(a), g.arc_cap(a));
    EXPECT_EQ(net.flow(a), 0.0);
  }
  EXPECT_EQ(net.tolerance(), 3e-12);
}

TEST(MaxFlow, PathCarriesBottleneckCapacity) {
  const Graph g = path_graph(4);
  FlowNetwork net(g);
  EXPECT_DOUBLE_EQ(flow::max_flow(net, 0, 3), 1.0);
  net.reset();
  EXPECT_DOUBLE_EQ(dinic_max_flow(net, 0, 3), 1.0);
}

TEST(MaxFlow, ParallelEdgesAggregate) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 0.5);
  g.finalize();
  FlowNetwork net(g);
  EXPECT_DOUBLE_EQ(flow::max_flow(net, 0, 1), 1.5);
}

TEST(MaxFlow, DirectedAsymmetricPairs) {
  // Classic crossover on undirected links: s-a and a-t carry 2, s-b and
  // b-t carry 1, and the a-b link (capacity 1) must carry a's surplus
  // unit to b. The flow on a-b runs one way; its reverse arc carries none.
  Graph g(4);
  const int s = 0, a = 1, b = 2, t = 3;
  g.add_edge(s, a, 2.0);
  g.add_edge(s, b, 1.0);
  g.add_edge(a, t, 1.0);
  g.add_edge(b, t, 2.0);
  const int ab = g.add_edge(a, b, 1.0);
  g.finalize();
  FlowNetwork net(g);
  EXPECT_DOUBLE_EQ(flow::max_flow(net, s, t), 3.0);
  EXPECT_DOUBLE_EQ(net.flow(2 * ab), 1.0);
  EXPECT_DOUBLE_EQ(net.flow(2 * ab + 1), 0.0);
  net.reset();
  EXPECT_DOUBLE_EQ(dinic_max_flow(net, s, t), 3.0);
  EXPECT_DOUBLE_EQ(net.flow(2 * ab), 1.0);
}

TEST(MaxFlow, DisconnectedPairHasZeroFlow) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  FlowNetwork net(g);
  EXPECT_DOUBLE_EQ(flow::max_flow(net, 0, 3), 0.0);
}

TEST(MaxFlow, ResetAllowsResolving) {
  const Graph g = random_graph(12, 18, 7);
  FlowNetwork net(g);
  const double first = flow::max_flow(net, 0, 11);
  net.reset();
  const double second = flow::max_flow(net, 0, 11);
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(MaxFlow, FlowConservationAndCapacityRespected) {
  const Graph g = random_graph(16, 30, 3);
  const int s = 0, t = 15;
  FlowNetwork net(g);
  const double value = flow::max_flow(net, s, t);
  std::vector<double> net_out(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (int a = 0; a < net.num_arcs(); ++a) {
    EXPECT_LE(net.flow(a), net.capacity(a) + 1e-9);
    net_out[static_cast<std::size_t>(g.arc_from(a))] += net.flow(a);
    net_out[static_cast<std::size_t>(g.arc_to(a))] -= net.flow(a);
  }
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (v == s || v == t) continue;
    EXPECT_NEAR(net_out[static_cast<std::size_t>(v)], 0.0, 1e-9) << v;
  }
  EXPECT_NEAR(net_out[static_cast<std::size_t>(s)], value, 1e-9);
  EXPECT_NEAR(net_out[static_cast<std::size_t>(t)], -value, 1e-9);
}

TEST(MaxFlow, PushRelabelMatchesDinicOnRandomGraphs) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    const int n = 8 + static_cast<int>(seed) * 4;
    const Graph g = random_graph(n, 3 * n, seed);
    FlowNetwork hl(g);
    FlowNetwork di(g);
    MaxFlowStats hl_stats;
    const double a = flow::max_flow(hl, 0, n - 1, &hl_stats);
    test_ref::Dinic dinic(di, 0, n - 1);
    const double b = dinic.run();
    EXPECT_NEAR(a, b, 1e-9 * (1.0 + a)) << "seed " << seed;
    EXPECT_GT(hl_stats.pushes, 0);
    EXPECT_GT(hl_stats.global_relabels, 0);
    EXPECT_GT(dinic.augmenting_paths(), 0);
  }
}

TEST(MinCut, MaxFlowEqualsMinCutCapacity) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    const Graph g = random_graph(14, 28, seed);
    const StCut cut = flow::st_min_cut(g, 0, 13);
    // st_min_cut already threw if the identity failed; check the exposed
    // fields agree, the capacity recomputes from the edge list, and the
    // independent Dinic flow reaches the same value.
    EXPECT_NEAR(cut.value, cut.cut_capacity, 1e-9 * (1.0 + cut.value));
    double recomputed = 0.0;
    for (const int e : cut.cut_edges) recomputed += g.edge_cap(e);
    EXPECT_NEAR(recomputed, cut.cut_capacity, 1e-12);
    FlowNetwork di(g);
    EXPECT_NEAR(dinic_max_flow(di, 0, 13), cut.value,
                1e-9 * (1.0 + cut.value));
    EXPECT_EQ(cut.source_side[0], 1);
    EXPECT_EQ(cut.source_side[13], 0);
  }
}

TEST(MinCut, CutEdgesDisconnectTerminals) {
  const Graph g = random_graph(12, 20, 21);
  const StCut cut = flow::st_min_cut(g, 0, 11);
  // Rebuild the graph without the cut edges; t must become unreachable.
  std::vector<std::uint8_t> removed(static_cast<std::size_t>(g.num_edges()), 0);
  for (const int e : cut.cut_edges) removed[static_cast<std::size_t>(e)] = 1;
  Graph pruned(g.num_nodes());
  for (int e = 0; e < g.num_edges(); ++e) {
    if (!removed[static_cast<std::size_t>(e)]) {
      pruned.add_edge(g.edge_u(e), g.edge_v(e), g.edge_cap(e));
    }
  }
  pruned.finalize();
  const std::vector<int> dist = bfs_distances(pruned, 0);
  EXPECT_EQ(dist[11], kUnreachable);
}

TEST(MinCut, PrebuiltNetworkOverloadMatchesAndResets) {
  const Graph g = random_graph(12, 20, 31);
  FlowNetwork net(g);
  const StCut a = flow::st_min_cut(net, 0, 11);
  EXPECT_DOUBLE_EQ(a.value, flow::st_min_cut(g, 0, 11).value);
  // A second pair on the same network must solve from a clean reset.
  const StCut b = flow::st_min_cut(net, 3, 9);
  EXPECT_DOUBLE_EQ(b.value, flow::st_min_cut(g, 3, 9).value);
}

TEST(MinCut, BridgeIsTheGlobalMinCut) {
  // Two K4 cliques joined by one bridge edge: global min cut = 1.
  Graph g(8);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) {
      g.add_edge(u, v);
      g.add_edge(4 + u, 4 + v);
    }
  }
  g.add_edge(0, 4);
  g.finalize();
  const StCut cut = flow::global_min_cut(g, flow::FlowOptions{/*threads=*/1});
  EXPECT_DOUBLE_EQ(cut.value, 1.0);
  ASSERT_EQ(cut.cut_edges.size(), 1u);
  const int side_sum = std::accumulate(cut.source_side.begin(),
                                       cut.source_side.end(), 0);
  EXPECT_EQ(side_sum, 4);
}

TEST(MinCut, HypercubeStCutIsDegree) {
  // Every s-t min cut of the unit-capacity d-cube is d (Menger: d
  // edge-disjoint paths between any two nodes).
  const Network hc = make_hypercube(4);
  const StCut cut = flow::st_min_cut(hc.graph, 0, 15);
  EXPECT_DOUBLE_EQ(cut.value, 4.0);
  const FlowNetwork net(hc.graph);
  EXPECT_EQ(net.num_nodes(), hc.graph.num_nodes());
  EXPECT_EQ(net.num_arcs(), hc.graph.num_arcs());
}

TEST(MinCut, MatchesExactLpSingleCommodityThroughput) {
  // A TM with one unit demand s->t has throughput == max-flow(s, t): the
  // multicommodity LP degenerates to single-commodity max flow.
  for (const std::uint64_t seed : {2ULL, 5ULL, 9ULL}) {
    const Network jf = make_jellyfish(10, 3, 1, seed);
    TrafficMatrix tm;
    tm.demands = {{0, 7, 1.0}};
    const double lp = mcf::throughput_exact_lp(jf.graph, tm).throughput;
    const StCut cut = flow::st_min_cut(jf.graph, 0, 7);
    EXPECT_NEAR(lp, cut.value, 1e-7 * (1.0 + cut.value)) << "seed " << seed;
  }
}

TEST(MaxFlow, InvalidInputsThrow) {
  const Graph g = path_graph(3);
  FlowNetwork net(g);
  EXPECT_THROW(flow::max_flow(net, 0, 0), std::invalid_argument);
  EXPECT_THROW(flow::max_flow(net, -1, 2), std::invalid_argument);
  EXPECT_THROW(flow::max_flow(net, 0, 3), std::invalid_argument);
  Graph unfinalized(2);
  unfinalized.add_edge(0, 1);
  EXPECT_THROW(FlowNetwork{unfinalized}, std::invalid_argument);
}

}  // namespace
}  // namespace tb
