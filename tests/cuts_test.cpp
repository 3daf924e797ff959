#include <gtest/gtest.h>

#include <limits>

#include "cuts/bisection.h"
#include "cuts/exact_cuts.h"
#include "cuts/sparsest_cut.h"
#include "mcf/engine.h"
#include "mcf/throughput.h"
#include "tm/synthetic.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "topo/natural.h"

namespace tb {
namespace {

Graph barbell(int clique) {
  Graph g(2 * clique);
  for (int u = 0; u < clique; ++u) {
    for (int v = u + 1; v < clique; ++v) {
      g.add_edge(u, v);
      g.add_edge(clique + u, clique + v);
    }
  }
  g.add_edge(0, clique);
  g.finalize();
  return g;
}

TEST(CutSparsity, HandMadeCut) {
  // Path 0-1-2, demand 0->2 weight 2. Cut {0} vs {1,2}: capacity 1 per
  // direction, crossing demand 2 forward only -> sparsity 1/2.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 2, 2.0}};
  const std::vector<std::uint8_t> side{0, 1, 1};
  EXPECT_DOUBLE_EQ(cuts::cut_sparsity(g, tm, side), 0.5);
}

TEST(CutSparsity, NoCrossingDemandIsInfinite) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 1, 1.0}};
  const std::vector<std::uint8_t> side{0, 0, 1};
  EXPECT_EQ(cuts::cut_sparsity(g, tm, side),
            std::numeric_limits<double>::infinity());
}

TEST(CutSparsity, AsymmetricDemandTakesWorseDirection) {
  Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 1, 4.0}, {1, 0, 1.0}};
  const std::vector<std::uint8_t> side{0, 1};
  // Forward 1/4, reverse 1/1 -> min is 1/4.
  EXPECT_DOUBLE_EQ(cuts::cut_sparsity(g, tm, side), 0.25);
}

TEST(SparsestCut, BruteForceFindsBarbellBridge) {
  const Graph g = barbell(4);
  TrafficMatrix tm;
  // A2A-style demand between the two cliques.
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      if (u != v) tm.demands.push_back({u, v, 1.0 / 8.0});
    }
  }
  const cuts::CutResult r = cuts::sparsest_cut_brute_force(g, tm);
  // Bridge cut: capacity 1, crossing demand 4*4/8 = 2 per direction.
  EXPECT_NEAR(r.sparsity, 0.5, 1e-12);
  int side1 = 0;
  for (const auto s : r.side) side1 += s;
  EXPECT_EQ(side1, 4);
}

TEST(SparsestCut, HeuristicsNeverBeatBruteForceOnSmallGraphs) {
  // On graphs small enough for exhaustive search, every heuristic's value
  // is >= the true sparsest cut.
  const Network jf = make_jellyfish(10, 3, 1, 3);
  const TrafficMatrix tm = longest_matching(jf);
  const cuts::CutResult exact =
      cuts::sparsest_cut_brute_force(jf.graph, tm, 1L << 20);
  for (const auto& r :
       {cuts::sparsest_cut_one_node(jf.graph, tm),
        cuts::sparsest_cut_two_node(jf.graph, tm),
        cuts::sparsest_cut_expanding(jf.graph, tm),
        cuts::sparsest_cut_eigenvector(jf.graph, tm)}) {
    EXPECT_GE(r.sparsity + 1e-12, exact.sparsity) << r.method;
  }
}

TEST(SparsestCut, EigenvectorFindsBarbellBridge) {
  const Graph g = barbell(5);
  TrafficMatrix tm;
  for (int u = 0; u < 10; ++u) {
    for (int v = 0; v < 10; ++v) {
      if (u != v) tm.demands.push_back({u, v, 0.1});
    }
  }
  const cuts::CutResult r = cuts::sparsest_cut_eigenvector(g, tm);
  // The sweep must discover the bridge cut (capacity 1, demand 5*5*0.1=2.5).
  EXPECT_NEAR(r.sparsity, 1.0 / 2.5, 1e-9);
}

TEST(SparsestCut, SurveyReportsWinners) {
  const Network jf = make_jellyfish(12, 3, 1, 9);
  const TrafficMatrix tm = longest_matching(jf);
  const cuts::SparseCutSurvey survey = cuts::best_sparse_cut(jf.graph, tm);
  EXPECT_EQ(survey.per_method.size(), 6u);
  EXPECT_FALSE(survey.winners.empty());
  for (const auto& [method, value] : survey.per_method) {
    EXPECT_GE(value + 1e-12, survey.best.sparsity) << method;
  }
  // 12 switches: the capped brute force is complete, so the survey's best
  // value is certified exact.
  EXPECT_EQ(survey.best.bound, cuts::CutBound::Exact);
}

TEST(SparsestCut, UpperBoundsThroughput) {
  // Any cut upper-bounds throughput (max-flow <= min-cut direction).
  for (const std::uint64_t seed : {1ULL, 5ULL, 7ULL}) {
    const Network jf = make_jellyfish(14, 3, 1, seed);
    const TrafficMatrix tm = longest_matching(jf);
    const double thr = mcf::ThroughputEngine(jf).solve(tm).throughput;
    const cuts::SparseCutSurvey survey = cuts::best_sparse_cut(jf.graph, tm);
    EXPECT_GE(survey.best.sparsity * (1.0 + 1e-9), thr) << "seed " << seed;
  }
}

TEST(Bisection, ExactBalancedEnumeration) {
  const Graph g = barbell(3);  // 6 nodes; bridge is the min balanced cut
  TrafficMatrix tm;
  for (int u = 0; u < 6; ++u) {
    for (int v = 0; v < 6; ++v) {
      if (u != v) tm.demands.push_back({u, v, 1.0 / 6.0});
    }
  }
  const cuts::CutResult r = cuts::bisection_sparsity(g, tm);
  // Bridge: cap 1, demand 3*3/6 = 1.5 each way -> sparsity 2/3.
  EXPECT_NEAR(r.sparsity, 1.0 / 1.5, 1e-12);
  EXPECT_DOUBLE_EQ(cuts::bisection_capacity(g), 1.0);
}

TEST(Bisection, HypercubeCapacityClosedForm) {
  // d-cube bisection = n/2 edges.
  const Network hc = make_hypercube(4);
  EXPECT_DOUBLE_EQ(cuts::bisection_capacity(hc.graph), 8.0);
}

TEST(Bisection, KlPathFindsLargeGraphCut) {
  const Graph g = barbell(12);  // 24 nodes -> KL path
  TrafficMatrix tm;
  for (int u = 0; u < 24; ++u) {
    for (int v = 0; v < 24; ++v) {
      if (u != v) tm.demands.push_back({u, v, 1.0 / 24.0});
    }
  }
  const cuts::CutResult r = cuts::bisection_sparsity(g, tm, /*exact_max=*/18);
  EXPECT_NEAR(r.sparsity, 1.0 / 6.0, 1e-9);  // cap 1 / (12*12/24)
}

TEST(Bisection, CutCannotBeBelowSparsestCut) {
  const Network jf = make_jellyfish(12, 3, 1, 17);
  const TrafficMatrix tm = all_to_all(jf);
  const cuts::CutResult bis = cuts::bisection_sparsity(jf.graph, tm);
  const cuts::CutResult sparse =
      cuts::sparsest_cut_brute_force(jf.graph, tm, 1L << 16);
  EXPECT_GE(bis.sparsity + 1e-12, sparse.sparsity);
}

TEST(ExactCuts, SingleDemandPairIsCertifiedExact) {
  // One demand pair: the sparsest cut must separate it, every separating
  // cut carries the same demand, so min cut == sparsest cut exactly.
  const Graph g = barbell(4);
  TrafficMatrix tm;
  tm.demands = {{1, 6, 2.0}};
  const cuts::CutResult st = cuts::sparsest_cut_st_mincut(g, tm);
  EXPECT_EQ(st.bound, cuts::CutBound::Exact);
  // Bridge capacity 1, demand 2 in one direction -> sparsity 1/2.
  EXPECT_NEAR(st.sparsity, 0.5, 1e-12);
  const cuts::CutResult exact =
      cuts::sparsest_cut_brute_force(g, tm, 1L << 20);
  EXPECT_EQ(exact.bound, cuts::CutBound::Exact);
  EXPECT_NEAR(st.sparsity, exact.sparsity, 1e-12);
}

TEST(ExactCuts, CappedBruteForceIsTaggedUpper) {
  const Network jf = make_jellyfish(20, 3, 1, 3);
  const TrafficMatrix tm = all_to_all(jf);
  // 2^19 - 1 candidate subsets > 1000: the enumeration is incomplete.
  const cuts::CutResult capped =
      cuts::sparsest_cut_brute_force(jf.graph, tm, 1000);
  EXPECT_EQ(capped.bound, cuts::CutBound::Upper);
}

TEST(ExactCuts, HeuristicsNeverBelowExactCutsOnSmallGraphs) {
  // The satellite property: on graphs small enough for complete
  // enumeration, no estimator — heuristic, exact s-t, or bisection — may
  // report a value below the true sparsest cut.
  for (const std::uint64_t seed : {1ULL, 4ULL, 9ULL, 23ULL}) {
    const Network jf = make_jellyfish(12, 3, 1, seed);
    for (const TrafficMatrix& tm :
         {all_to_all(jf), longest_matching(jf), random_matching(jf, 1, seed)}) {
      const cuts::CutResult exact =
          cuts::sparsest_cut_brute_force(jf.graph, tm, 1L << 20);
      ASSERT_EQ(exact.bound, cuts::CutBound::Exact);
      for (const auto& r :
           {cuts::sparsest_cut_one_node(jf.graph, tm),
            cuts::sparsest_cut_two_node(jf.graph, tm),
            cuts::sparsest_cut_expanding(jf.graph, tm),
            cuts::sparsest_cut_eigenvector(jf.graph, tm),
            cuts::sparsest_cut_st_mincut(jf.graph, tm, 8, seed),
            cuts::bisection_sparsity(jf.graph, tm)}) {
        EXPECT_GE(r.sparsity + 1e-12, exact.sparsity)
            << r.method << " seed " << seed << " tm " << tm.name;
      }
    }
  }
}

TEST(ExactCuts, StMincutUpperBoundsThroughput) {
  for (const std::uint64_t seed : {3ULL, 8ULL}) {
    const Network jf = make_jellyfish(14, 3, 1, seed);
    const TrafficMatrix tm = longest_matching(jf);
    const double thr = mcf::ThroughputEngine(jf).solve(tm).throughput;
    const cuts::CutResult st = cuts::sparsest_cut_st_mincut(jf.graph, tm);
    EXPECT_GE(st.sparsity * (1.0 + 1e-9), thr) << "seed " << seed;
  }
}

TEST(ExactCuts, BisectionBoundTagsFollowThePath) {
  const Network small = make_jellyfish(10, 3, 1, 5);
  const TrafficMatrix tm_small = all_to_all(small);
  EXPECT_EQ(cuts::bisection_sparsity(small.graph, tm_small).bound,
            cuts::CutBound::Exact);
  const Network big = make_jellyfish(24, 3, 1, 5);
  const TrafficMatrix tm_big = all_to_all(big);
  const cuts::CutResult kl =
      cuts::bisection_sparsity(big.graph, tm_big, /*exact_max=*/18);
  EXPECT_EQ(kl.bound, cuts::CutBound::Upper);
  // The KL path must still produce a genuine balanced cut.
  int ones = 0;
  for (const auto s : kl.side) ones += s;
  EXPECT_EQ(ones, 12);
}

}  // namespace
}  // namespace tb
