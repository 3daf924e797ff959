#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "graph/algorithms.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/spectral.h"

namespace tb {
namespace {

Graph ring(int n) {
  Graph g(n);
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  g.finalize();
  return g;
}

Graph complete(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

TEST(Graph, ArcPairingConvention) {
  Graph g(3);
  const int e = g.add_edge(1, 2, 2.5);
  g.finalize();
  EXPECT_EQ(g.arc_from(2 * e), 1);
  EXPECT_EQ(g.arc_to(2 * e), 2);
  EXPECT_EQ(g.arc_from(2 * e + 1), 2);
  EXPECT_EQ(g.arc_to(2 * e + 1), 1);
  EXPECT_DOUBLE_EQ(g.arc_cap(2 * e), 2.5);
  EXPECT_EQ(Graph::reverse_arc(2 * e), 2 * e + 1);
  EXPECT_EQ(Graph::reverse_arc(2 * e + 1), 2 * e);
}

TEST(Graph, RejectsSelfLoopAndBadIds) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, -std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, DegreeAndAdjacency) {
  Graph g = complete(5);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_TRUE(g.has_edge(4, 0));
  EXPECT_EQ(g.num_edges(), 10);
  EXPECT_EQ(g.num_arcs(), 20);
  EXPECT_DOUBLE_EQ(g.total_capacity(), 20.0);
}

TEST(Graph, MultigraphDegrees) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Graph, OutHeadsAlignWithOutArcs) {
  // Multigraph: parallel edges in both orientations, so one node's
  // out-arcs mix even (u->v) and odd (v->u) arc ids with repeated heads.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 1);
  const auto expect_aligned = [&g] {
    for (int v = 0; v < g.num_nodes(); ++v) {
      const auto arcs = g.out_arcs(v);
      const auto heads = g.out_heads(v);
      ASSERT_EQ(heads.size(), arcs.size()) << "node " << v;
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        EXPECT_EQ(heads[i], g.arc_to(arcs[i])) << "node " << v << " slot " << i;
      }
    }
  };
  g.finalize();
  expect_aligned();
  // Mutation invalidates the CSR; the second finalize() rebuilds the heads
  // along with the arcs.
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  g.finalize();
  EXPECT_EQ(g.degree(3), 3);
  expect_aligned();
}

TEST(Algorithms, BfsDistancesOnRing) {
  Graph g = ring(8);
  const std::vector<int> d = bfs_distances(g, 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[4], 4);
  EXPECT_EQ(d[7], 1);
}

TEST(Algorithms, DiameterAndConnectivity) {
  EXPECT_EQ(diameter(ring(10)), 5);
  EXPECT_EQ(diameter(complete(6)), 1);
  EXPECT_TRUE(is_connected(ring(5)));
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(diameter(g), kUnreachable);
}

TEST(Algorithms, ConnectedComponents) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.finalize();
  int count = 0;
  const std::vector<int> comp = connected_components(g, &count);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(Algorithms, AllPairsMatchesBfs) {
  Graph g = ring(9);
  const std::vector<int> all = all_pairs_distances(g);
  for (int s = 0; s < 9; ++s) {
    const std::vector<int> d = bfs_distances(g, s);
    for (int t = 0; t < 9; ++t) {
      EXPECT_EQ(apd_at(all, 9, s, t), d[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(Algorithms, AveragePathLengthCompleteGraph) {
  EXPECT_DOUBLE_EQ(average_shortest_path_length(complete(7)), 1.0);
}

TEST(Algorithms, DijkstraRespectsWeights) {
  // Triangle where the direct hop is longer than the two-hop detour.
  Graph g(3);
  const int e01 = g.add_edge(0, 1);
  const int e12 = g.add_edge(1, 2);
  const int e02 = g.add_edge(0, 2);
  g.finalize();
  std::vector<double> len(static_cast<std::size_t>(g.num_arcs()), 1.0);
  len[static_cast<std::size_t>(2 * e02)] = 5.0;
  len[static_cast<std::size_t>(2 * e02 + 1)] = 5.0;
  std::vector<double> dist;
  std::vector<int> parent;
  dijkstra(g, 0, len, dist, parent);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);
  // Parent of 2 is the arc from 1.
  EXPECT_EQ(g.arc_from(parent[2]), 1);
  (void)e01;
  (void)e12;
}

TEST(Spectral, RingEigenvalueMatchesClosedForm) {
  // lambda_2 of the normalized Laplacian of a cycle C_n is 1 - cos(2*pi/n).
  const int n = 16;
  const SpectralResult r = fiedler_vector(ring(n));
  EXPECT_NEAR(r.eigenvalue, 1.0 - std::cos(2.0 * M_PI / n), 1e-6);
}

TEST(Spectral, CompleteGraphGap) {
  // K_n normalized Laplacian has lambda_2 = n/(n-1).
  const int n = 8;
  const SpectralResult r = fiedler_vector(complete(n));
  EXPECT_NEAR(r.eigenvalue, static_cast<double>(n) / (n - 1), 1e-6);
}

TEST(Spectral, FiedlerSeparatesBarbell) {
  // Two K_5 joined by one edge: the Fiedler vector signs the two cliques.
  Graph g(10);
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) {
      g.add_edge(u, v);
      g.add_edge(5 + u, 5 + v);
    }
  }
  g.add_edge(0, 5);
  g.finalize();
  const SpectralResult r = fiedler_vector(g);
  for (int v = 1; v < 5; ++v) {
    EXPECT_GT(r.vector[static_cast<std::size_t>(v)] * r.vector[1], 0.0);
    EXPECT_GT(r.vector[static_cast<std::size_t>(5 + v)] * r.vector[6], 0.0);
  }
  EXPECT_LT(r.vector[1] * r.vector[6], 0.0);
}

TEST(Partition, CutCapacityCounts) {
  Graph g = complete(4);
  std::vector<std::uint8_t> side{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(cut_capacity(g, side), 4.0);
}

TEST(Partition, BarbellBisectionFindsBridge) {
  Graph g(8);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) {
      g.add_edge(u, v);
      g.add_edge(4 + u, 4 + v);
    }
  }
  g.add_edge(0, 4);
  g.finalize();
  const BipartitionResult r = min_bisection(g, 8, 3);
  EXPECT_DOUBLE_EQ(r.cut_capacity, 1.0);
  int side1 = 0;
  for (const auto s : r.side) side1 += s;
  EXPECT_EQ(side1, 4);
}

TEST(Partition, HypercubeBisectionIsHalfEdges) {
  // 3-cube: min bisection cut = 4 (n/2 links for n = 8).
  Graph g(8);
  for (int u = 0; u < 8; ++u) {
    for (int b = 0; b < 3; ++b) {
      const int v = u ^ (1 << b);
      if (u < v) g.add_edge(u, v);
    }
  }
  g.finalize();
  const BipartitionResult r = min_bisection(g, 16, 5);
  EXPECT_DOUBLE_EQ(r.cut_capacity, 4.0);
}

}  // namespace
}  // namespace tb
