#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "graph/algorithms.h"
#include "topo/hypercube.h"
#include "topo/io.h"
#include "topo/torus.h"
#include "topo/xpander.h"

namespace tb {
namespace {

TEST(Xpander, RegularAndConnected) {
  for (const int d : {3, 5, 8}) {
    for (const int lift : {4, 8}) {
      const Network net = make_xpander(d, lift, 1, 7);
      net.validate();
      EXPECT_EQ(net.graph.num_nodes(), (d + 1) * lift);
      for (int v = 0; v < net.graph.num_nodes(); ++v) {
        EXPECT_EQ(net.graph.degree(v), d) << "d=" << d << " lift=" << lift;
      }
    }
  }
}

TEST(Xpander, NoIntraBlockEdges) {
  const int d = 4;
  const int lift = 6;
  const Network net = make_xpander(d, lift, 1, 9);
  for (int e = 0; e < net.graph.num_edges(); ++e) {
    EXPECT_NE(net.graph.edge_u(e) / lift, net.graph.edge_v(e) / lift);
  }
}

TEST(Xpander, DeterministicPerSeed) {
  const Network a = make_xpander(3, 8, 1, 5);
  const Network b = make_xpander(3, 8, 1, 5);
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (int e = 0; e < a.graph.num_edges(); ++e) {
    EXPECT_EQ(a.graph.edge_u(e), b.graph.edge_u(e));
    EXPECT_EQ(a.graph.edge_v(e), b.graph.edge_v(e));
  }
}

TEST(Torus, RingIsOneDimensionalTorus) {
  const Network net = make_torus({8}, 1);
  net.validate();
  EXPECT_EQ(net.graph.num_nodes(), 8);
  EXPECT_EQ(net.graph.num_edges(), 8);
  EXPECT_EQ(diameter(net.graph), 4);
}

TEST(Torus, TwoDimensionalDegreesAndDiameter) {
  const Network net = make_torus({4, 4}, 1);
  net.validate();
  EXPECT_EQ(net.graph.num_nodes(), 16);
  for (int v = 0; v < 16; ++v) EXPECT_EQ(net.graph.degree(v), 4);
  EXPECT_EQ(diameter(net.graph), 4);  // 2 + 2
}

TEST(Torus, MeshHasLowerEdgeCountAndBiggerDiameter) {
  const Network torus = make_torus({5, 5}, 1, /*wrap=*/true);
  const Network mesh = make_torus({5, 5}, 1, /*wrap=*/false);
  EXPECT_GT(torus.graph.num_edges(), mesh.graph.num_edges());
  EXPECT_LT(diameter(torus.graph), diameter(mesh.graph));
}

TEST(Torus, Size2DimensionsAvoidParallelEdges) {
  const Network net = make_torus({2, 2, 2}, 1);
  const Network hc = make_hypercube(3);
  EXPECT_EQ(net.graph.num_edges(), hc.graph.num_edges());
}

TEST(IO, EdgeListRoundTrip) {
  const Network net = make_torus({3, 3}, 2);
  const std::string text = to_edge_list(net);
  const Network back = parse_edge_list(text, net.name);
  back.validate();
  EXPECT_EQ(back.graph.num_nodes(), net.graph.num_nodes());
  EXPECT_EQ(back.graph.num_edges(), net.graph.num_edges());
  EXPECT_EQ(back.servers, net.servers);
  for (int e = 0; e < net.graph.num_edges(); ++e) {
    EXPECT_EQ(back.graph.edge_u(e), net.graph.edge_u(e));
    EXPECT_EQ(back.graph.edge_v(e), net.graph.edge_v(e));
    EXPECT_DOUBLE_EQ(back.graph.edge_cap(e), net.graph.edge_cap(e));
  }
}

TEST(IO, RejectsMalformedInput) {
  EXPECT_THROW(parse_edge_list("edge 0 1 1.0\n"), std::runtime_error);
  EXPECT_THROW(parse_edge_list("nodes 2\nedge 0 5 1.0\n"), std::runtime_error);
  EXPECT_THROW(parse_edge_list("nodes 2\nbogus\n"), std::runtime_error);
  EXPECT_THROW(parse_edge_list(""), std::runtime_error);
  EXPECT_THROW(parse_edge_list("nodes 3\nservers 9 1\n"), std::runtime_error);
}

TEST(IO, CommentsAndBlankLinesIgnored) {
  const Network net = parse_edge_list(
      "# header\n\nnodes 2\n# mid\nservers 0 1\nservers 1 1\nedge 0 1 2.5\n");
  EXPECT_EQ(net.graph.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(net.graph.edge_cap(0), 2.5);
}

TEST(IO, DotContainsNodesAndEdges) {
  const Network net = make_torus({3}, 1);
  const std::string dot = to_dot(net);
  EXPECT_NE(dot.find("graph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("(1 srv)"), std::string::npos);
}

}  // namespace
}  // namespace tb
