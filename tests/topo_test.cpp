#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/registry.h"
#include "graph/algorithms.h"
#include "graph/spectral.h"
#include "topo/bcube.h"
#include "topo/dcell.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"
#include "topo/flattened_butterfly.h"
#include "topo/hypercube.h"
#include "topo/hyperx.h"
#include "topo/jellyfish.h"
#include "topo/longhop.h"
#include "topo/natural.h"
#include "topo/slimfly.h"
#include "topo/theory_graphs.h"
#include "util/rng.h"

namespace tb {
namespace {

TEST(Hypercube, StructureAndDiameter) {
  for (int d = 2; d <= 6; ++d) {
    const Network net = make_hypercube(d);
    net.validate();
    EXPECT_EQ(net.graph.num_nodes(), 1 << d);
    EXPECT_EQ(net.graph.num_edges(), d * (1 << (d - 1)));
    for (int v = 0; v < net.graph.num_nodes(); ++v) {
      EXPECT_EQ(net.graph.degree(v), d);
    }
    EXPECT_EQ(diameter(net.graph), d);
  }
}

TEST(FatTree, CountsAndLayers) {
  for (int k = 4; k <= 10; k += 2) {
    const Network net = make_fat_tree(k);
    net.validate();
    const FatTreeInfo info = fat_tree_info(k);
    EXPECT_EQ(net.graph.num_nodes(), 5 * k * k / 4);
    EXPECT_EQ(net.total_servers(), k * k * k / 4);
    // Edge and agg switches have degree k (k/2 up + k/2 down for agg;
    // edge switches have k/2 up, servers not counted as graph links).
    for (int e = 0; e < info.num_edge; ++e) {
      EXPECT_EQ(net.graph.degree(info.first_edge + e), k / 2);
      EXPECT_EQ(net.servers[static_cast<std::size_t>(info.first_edge + e)], k / 2);
    }
    for (int a = 0; a < info.num_agg; ++a) {
      EXPECT_EQ(net.graph.degree(info.first_agg + a), k);
      EXPECT_EQ(net.servers[static_cast<std::size_t>(info.first_agg + a)], 0);
    }
    for (int c = 0; c < info.num_core; ++c) {
      EXPECT_EQ(net.graph.degree(info.first_core + c), k);
    }
    EXPECT_EQ(diameter(net.graph), 4);  // edge-agg-core-agg-edge
  }
  EXPECT_THROW(make_fat_tree(5), std::invalid_argument);
}

TEST(BCube, CountsAndServerDegrees) {
  for (const auto& [n, k] : {std::pair{2, 2}, {4, 1}, {3, 2}}) {
    const Network net = make_bcube(n, k);
    net.validate();
    const long servers = bcube_num_servers(n, k);
    const long switches = bcube_num_switches(n, k);
    EXPECT_EQ(net.graph.num_nodes(), servers + switches);
    EXPECT_EQ(net.total_servers(), servers);
    // Server nodes have degree k+1, switch nodes degree n.
    for (long s = 0; s < servers; ++s) {
      EXPECT_EQ(net.graph.degree(static_cast<int>(s)), k + 1);
      EXPECT_EQ(net.servers[static_cast<std::size_t>(s)], 1);
    }
    for (long sw = servers; sw < servers + switches; ++sw) {
      EXPECT_EQ(net.graph.degree(static_cast<int>(sw)), n);
      EXPECT_EQ(net.servers[static_cast<std::size_t>(sw)], 0);
    }
  }
}

TEST(BCube, KnownDiameter) {
  // BCube_k diameter (server to server) is 2(k+1).
  const Network net = make_bcube(2, 2);
  EXPECT_EQ(diameter(net.graph), 2 * 3);
}

TEST(DCell, CountsAndDegrees) {
  for (const auto& [n, l] : {std::pair{2, 1}, {3, 1}, {4, 1}, {2, 2}}) {
    const Network net = make_dcell(n, l);
    net.validate();
    EXPECT_EQ(net.total_servers(), dcell_num_servers(n, l));
    // Every server node: 1 switch link + l level links.
    const long servers = dcell_num_servers(n, l);
    for (long s = 0; s < servers; ++s) {
      EXPECT_EQ(net.graph.degree(static_cast<int>(s)), 1 + l);
    }
    // Mini-switches connect n servers each.
    for (int v = static_cast<int>(servers); v < net.graph.num_nodes(); ++v) {
      EXPECT_EQ(net.graph.degree(v), n);
    }
  }
}

TEST(DCell, Dcell5Level1Is30Servers) {
  const Network net = make_dcell(5, 1);
  EXPECT_EQ(net.total_servers(), 30);
  EXPECT_EQ(net.graph.num_nodes(), 30 + 6);
}

TEST(Dragonfly, BalancedStructure) {
  for (int t = 1; t <= 3; ++t) {
    const Network net = make_dragonfly_balanced(t);
    net.validate();
    const int a = 2 * t;
    const int g = a * t + 1;
    EXPECT_EQ(net.graph.num_nodes(), g * a);
    EXPECT_EQ(net.total_servers(), g * a * t);
    // Each router: (a-1) local + h = t global links.
    for (int v = 0; v < net.graph.num_nodes(); ++v) {
      EXPECT_EQ(net.graph.degree(v), (a - 1) + t);
    }
  }
}

TEST(Dragonfly, EveryGroupPairHasOneGlobalLink) {
  const int t = 2;
  const Network net = make_dragonfly_balanced(t);
  const int a = 2 * t;
  const int g = a * t + 1;
  std::vector<std::vector<int>> group_links(static_cast<std::size_t>(g),
                                            std::vector<int>(static_cast<std::size_t>(g), 0));
  for (int e = 0; e < net.graph.num_edges(); ++e) {
    const int gu = net.graph.edge_u(e) / a;
    const int gv = net.graph.edge_v(e) / a;
    if (gu != gv) {
      ++group_links[static_cast<std::size_t>(gu)][static_cast<std::size_t>(gv)];
      ++group_links[static_cast<std::size_t>(gv)][static_cast<std::size_t>(gu)];
    }
  }
  for (int x = 0; x < g; ++x) {
    for (int y = 0; y < g; ++y) {
      if (x != y) {
        EXPECT_EQ(group_links[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)], 1)
            << x << "," << y;
      }
    }
  }
}

TEST(FlattenedButterfly, PaperInstance5Ary3Stage) {
  const Network net = make_flattened_butterfly(5, 3);
  net.validate();
  EXPECT_EQ(net.graph.num_nodes(), 25);
  EXPECT_EQ(net.total_servers(), 125);
  // Each router: 4 peers in each of 2 dimensions.
  for (int v = 0; v < 25; ++v) EXPECT_EQ(net.graph.degree(v), 8);
  EXPECT_EQ(diameter(net.graph), 2);
}

TEST(FlattenedButterfly, BinaryIsHypercube) {
  const Network fbf = make_flattened_butterfly(2, 5);
  const Network hc = make_hypercube(4);
  EXPECT_EQ(fbf.graph.num_nodes(), hc.graph.num_nodes());
  EXPECT_EQ(fbf.graph.num_edges(), hc.graph.num_edges());
  EXPECT_EQ(diameter(fbf.graph), 4);
}

TEST(HyperX, RegularLatticeDegreesAndCaps) {
  const HyperXParams p{2, 4, 2, 3};
  const Network net = make_hyperx(p);
  net.validate();
  EXPECT_EQ(net.graph.num_nodes(), 16);
  EXPECT_EQ(net.total_servers(), 48);
  for (int v = 0; v < 16; ++v) EXPECT_EQ(net.graph.degree(v), 6);
  for (int e = 0; e < net.graph.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(net.graph.edge_cap(e), 2.0);
  }
  EXPECT_EQ(diameter(net.graph), 2);
}

TEST(HyperX, SearchRespectsConstraints) {
  const auto p = search_hyperx(16, 128, 0.4);
  ASSERT_TRUE(p.has_value());
  EXPECT_LE(p->radix_used(), 16);
  EXPECT_GE(p->servers(), 128);
  EXPECT_GE(p->bisection(), 0.4);
  // Infeasible demand.
  EXPECT_FALSE(search_hyperx(3, 1'000'000, 0.5).has_value());
}

TEST(Jellyfish, RandomRegularIsRegularConnected) {
  for (const int n : {16, 64}) {
    for (const int r : {3, 5, 8}) {
      if ((n * r) % 2 != 0) continue;
      const Network net = make_jellyfish(n, r, 1, 7);
      net.validate();
      for (int v = 0; v < n; ++v) EXPECT_EQ(net.graph.degree(v), r);
      // Simple graph: no duplicate adjacency.
      for (int v = 0; v < n; ++v) {
        std::set<int> nbrs;
        for (const int a : net.graph.out_arcs(v)) {
          EXPECT_TRUE(nbrs.insert(net.graph.arc_to(a)).second);
        }
      }
    }
  }
}

TEST(Jellyfish, DifferentSeedsDifferentGraphs) {
  const Network a = make_jellyfish(32, 4, 1, 1);
  const Network b = make_jellyfish(32, 4, 1, 2);
  bool differ = false;
  for (int v = 0; v < 32 && !differ; ++v) {
    std::set<int> na;
    std::set<int> nb;
    for (const int arc : a.graph.out_arcs(v)) na.insert(a.graph.arc_to(arc));
    for (const int arc : b.graph.out_arcs(v)) nb.insert(b.graph.arc_to(arc));
    differ = na != nb;
  }
  EXPECT_TRUE(differ);
}

TEST(Jellyfish, SameSeedIsDeterministic) {
  const Network a = make_jellyfish(32, 4, 1, 5);
  const Network b = make_jellyfish(32, 4, 1, 5);
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (int e = 0; e < a.graph.num_edges(); ++e) {
    EXPECT_EQ(a.graph.edge_u(e), b.graph.edge_u(e));
    EXPECT_EQ(a.graph.edge_v(e), b.graph.edge_v(e));
  }
}

TEST(SameEquipment, MatchesDegreeSequenceAndServers) {
  const Network ft = make_fat_tree(4);
  const Network rnd = make_same_equipment_random(ft, 11);
  rnd.validate();
  std::vector<int> d1 = ft.graph.degree_sequence();
  std::vector<int> d2 = rnd.graph.degree_sequence();
  // Same multiset of degrees AND same per-node degree (paper: same number
  // of links as the *corresponding* node).
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(ft.servers, rnd.servers);
}

TEST(SameEquipment, TrunkedCapacityBecomesParallelPorts) {
  // 3x3 HyperX with K=2 trunks: 2 dims * 2 peers * K = 8 unit ports per
  // router, realizable as a simple graph on 9 nodes.
  const Network hx = make_hyperx({2, 3, 2, 2});
  const Network rnd = make_same_equipment_random(hx, 3);
  for (int v = 0; v < rnd.graph.num_nodes(); ++v) {
    EXPECT_EQ(rnd.graph.degree(v), 8);
  }
}

TEST(LongHop, ZeroExtraIsHypercube) {
  const Network lh = make_long_hop(4, 0, 1);
  const Network hc = make_hypercube(4);
  EXPECT_EQ(lh.graph.num_edges(), hc.graph.num_edges());
  EXPECT_EQ(diameter(lh.graph), 4);
}

/// The generator set of a Cayley graph on Z_2^dim: node 0's neighbours.
std::vector<std::uint32_t> generators_of(const Network& net) {
  std::vector<std::uint32_t> gens;
  for (const int a : net.graph.out_arcs(0)) {
    gens.push_back(static_cast<std::uint32_t>(net.graph.arc_to(a)));
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

TEST(LongHop, ExtraGeneratorsRaiseGapAndDegree) {
  const Network lh = make_long_hop(5, 3, 1);
  lh.validate();
  for (int v = 0; v < lh.graph.num_nodes(); ++v) {
    EXPECT_EQ(lh.graph.degree(v), 8);
  }
  // Long hops raise the spectral gap above the hypercube's (2/dim) and
  // shrink the diameter below it.
  EXPECT_DOUBLE_EQ(cayley_spectral_gap(5, {1, 2, 4, 8, 16}), 0.4);
  EXPECT_GT(cayley_spectral_gap(5, generators_of(lh)), 0.4);
  EXPECT_LT(diameter(lh.graph), 5);
}

/// The Cayley graph on Z_2^dim with generator set `gens`.
Graph cayley_graph(int dim, const std::vector<std::uint32_t>& gens) {
  Graph g(1 << dim);
  for (int u = 0; u < (1 << dim); ++u) {
    for (const std::uint32_t s : gens) {
      const int v = u ^ static_cast<int>(s);
      if (u < v) g.add_edge(u, v);
    }
  }
  g.finalize();
  return g;
}

TEST(LongHop, SpectralGapMatchesFiedler) {
  // Seeded random generator sets, redrawn until the Cayley graph is
  // connected: the closed form equals the power-iteration lambda_2.
  Rng rng(34);
  for (int dim = 3; dim <= 8; ++dim) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto size = std::min<std::size_t>(
          static_cast<std::size_t>(dim) + rng.next_u64(6), (1u << dim) - 1);
      std::vector<std::uint32_t> gens;
      Graph g;
      do {
        gens.clear();
        while (gens.size() < size) {
          const auto s =
              static_cast<std::uint32_t>(1 + rng.next_u64((1u << dim) - 1));
          if (std::find(gens.begin(), gens.end(), s) == gens.end()) {
            gens.push_back(s);
          }
        }
        g = cayley_graph(dim, gens);
      } while (!is_connected(g));
      SCOPED_TRACE("dim " + std::to_string(dim) + " |S| " +
                   std::to_string(gens.size()));
      EXPECT_NEAR(cayley_spectral_gap(dim, gens), fiedler_vector(g).eigenvalue,
                  1e-9);
    }
  }
}

TEST(LongHop, GeneratorsArePinned) {
  // Registry seed 1 (dims 5-8) and one Fig. 8 instance (dim 8, 7 extra
  // generators, seed 7): generator sets and exact gaps. A change to the
  // pool, the budget or the tie rule moves these and says why in
  // CHANGES.md.
  struct Case {
    std::vector<std::uint32_t> gens;
    double gap;
  };
  const std::vector<Network> ladder =
      family_instances(Family::LongHop, 0, 1 << 20, 1);
  const Case registry[] = {
      {{1, 2, 4, 8, 15, 16, 26, 28, 31}, 6.0 / 9.0},
      {{1, 2, 4, 8, 15, 16, 27, 32, 50, 55, 62}, 6.0 / 11.0},
      {{1, 2, 4, 8, 14, 16, 32, 55, 64, 95, 107, 114}, 8.0 / 12.0},
      {{1, 2, 4, 8, 16, 32, 47, 60, 64, 114, 128, 159, 222, 251}, 6.0 / 14.0},
  };
  ASSERT_EQ(ladder.size(), 4u);
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    SCOPED_TRACE(ladder[i].name);
    const int dim = static_cast<int>(i) + 5;
    EXPECT_EQ(generators_of(ladder[i]), registry[i].gens);
    EXPECT_DOUBLE_EQ(cayley_spectral_gap(dim, registry[i].gens),
                     registry[i].gap);
  }
  const Network fig8 = make_long_hop(8, 7, 1, 7);
  const std::vector<std::uint32_t> fig8_gens = {
      1, 2, 4, 8, 16, 32, 64, 87, 118, 124, 128, 133, 172, 200, 239};
  EXPECT_EQ(generators_of(fig8), fig8_gens);
  EXPECT_DOUBLE_EQ(cayley_spectral_gap(8, fig8_gens), 8.0 / 15.0);
}

TEST(SlimFly, MmsStructure) {
  for (const int q : {5, 13}) {
    ASSERT_TRUE(slim_fly_supports(q));
    const Network net = make_slim_fly(q, 1);
    net.validate();
    EXPECT_EQ(net.graph.num_nodes(), 2 * q * q);
    const int degree = (3 * q - 1) / 2;
    for (int v = 0; v < net.graph.num_nodes(); ++v) {
      EXPECT_EQ(net.graph.degree(v), degree) << "q=" << q << " v=" << v;
    }
    EXPECT_EQ(diameter(net.graph), 2) << "q=" << q;
  }
}

TEST(SlimFly, RejectsUnsupportedQ) {
  EXPECT_FALSE(slim_fly_supports(7));   // q % 4 == 3 variant not built
  EXPECT_FALSE(slim_fly_supports(9));   // prime power
  EXPECT_THROW(make_slim_fly(7, 1), std::invalid_argument);
}

TEST(TheoryGraphs, ClusteredRandomDegrees) {
  const Network net = make_clustered_random(32, 6, 2, 3);
  net.validate();
  EXPECT_EQ(net.graph.num_nodes(), 64);
  for (int v = 0; v < 64; ++v) EXPECT_EQ(net.graph.degree(v), 8);
}

TEST(TheoryGraphs, SubdividedExpanderNodeCount) {
  const int base = 20;
  const int d = 2;
  const int p = 3;
  const Network net = make_subdivided_expander(base, d, p, 5);
  net.validate();
  const int base_edges = base * 2 * d / 2;
  EXPECT_EQ(net.graph.num_nodes(), base + base_edges * (p - 1));
  EXPECT_EQ(net.graph.num_edges(), base_edges * p);
  // Path-internal nodes have degree 2.
  for (int v = base; v < net.graph.num_nodes(); ++v) {
    EXPECT_EQ(net.graph.degree(v), 2);
  }
}

TEST(Natural, SuiteIsConnectedAndSized) {
  const std::vector<Network> nets = natural_network_suite(9, 31);
  EXPECT_EQ(nets.size(), 9u);
  for (const Network& net : nets) {
    net.validate();
    EXPECT_GE(net.graph.num_nodes(), 10);
    EXPECT_LE(net.graph.num_nodes(), 40);
  }
}

TEST(Natural, BarabasiAlbertHasHubs) {
  const Network net = make_barabasi_albert(60, 2, 9);
  const std::vector<int> deg = net.graph.degree_sequence();
  const int max_deg = *std::max_element(deg.begin(), deg.end());
  EXPECT_GE(max_deg, 8);  // preferential attachment grows hubs
}

}  // namespace
}  // namespace tb
