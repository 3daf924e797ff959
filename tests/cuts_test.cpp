#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "cuts/bisection.h"
#include "cuts/cut_tracker.h"
#include "cuts/exact_cuts.h"
#include "cuts/sparsest_cut.h"
#include "core/evaluator.h"
#include "core/registry.h"
#include "graph/algorithms.h"
#include "graph/partition.h"
#include "graph/spectral.h"
#include "mcf/engine.h"
#include "mcf/throughput.h"
#include "tm/synthetic.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "topo/natural.h"
#include "util/rng.h"

namespace tb {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

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

TEST(SparsestCut, ExpandingReturnsOnDisconnectedGraphs) {
  // Two triangles with demand across them: every ball stops at its own
  // component, whose cut carries demand and no capacity. A node the BFS
  // marks kUnreachable once made the radius loop walk ~2^31 radii per
  // source; a hang fails under the suite's per-test timeout.
  Graph g(6);
  for (const int base : {0, 3}) {
    g.add_edge(base, base + 1);
    g.add_edge(base + 1, base + 2);
    g.add_edge(base + 2, base);
  }
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 4, 1.0}, {5, 1, 1.0}, {0, 1, 1.0}};
  const cuts::CutResult r = cuts::sparsest_cut_expanding(g, tm);
  EXPECT_EQ(r.sparsity, 0.0);
  ASSERT_EQ(r.side.size(), 6u);
  EXPECT_EQ(r.side[0], r.side[1]);
  EXPECT_EQ(r.side[0], r.side[2]);
  EXPECT_NE(r.side[0], r.side[3]);
  EXPECT_EQ(r.side[3], r.side[4]);
  EXPECT_EQ(r.side[3], r.side[5]);
}

TEST(DegenerateCut, IsolatedNode) {
  // A triangle plus node 3 with no link, and demand into node 3: the cut
  // around node 3 carries demand and no capacity, so the survey answers
  // sparsity 0. The eigenvector member offers no cut there (the normalized
  // Laplacian is undefined at a node without capacity) instead of throwing.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 3, 1.0}, {1, 2, 1.0}};
  const cuts::CutResult eig = cuts::sparsest_cut_eigenvector(g, tm);
  EXPECT_EQ(eig.sparsity, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(eig.side.empty());
  const cuts::SparseCutSurvey survey = cuts::best_sparse_cut(g, tm);
  EXPECT_EQ(survey.best.sparsity, 0.0);
  ASSERT_EQ(survey.best.side.size(), 4u);
  EXPECT_NE(survey.best.side[3], survey.best.side[0]);
}

TEST(SparsestCut, BruteForcePricesTheLastNodeAlone) {
  // The enumeration pins node n-1 to side 1; the cut with node n-1 alone
  // is the mask with no other node, which it once skipped, pricing the
  // whole node set (no cut) instead.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 3, 1.0}};
  const cuts::CutResult brute = cuts::sparsest_cut_brute_force(g, tm);
  EXPECT_EQ(brute.sparsity, 0.0);
  EXPECT_EQ(brute.bound, cuts::CutBound::Exact);
  EXPECT_EQ(brute.side, (std::vector<std::uint8_t>{0, 0, 0, 1}));
  EXPECT_EQ(brute.sparsity, cuts::sparsest_cut_one_node(g, tm).sparsity);
}

/// A named degenerate cut input with its sparsest-cut optimum and its
/// balanced-cut answers.
struct DegenerateInput {
  std::string name;
  Graph g;
  TrafficMatrix tm;
  double optimum;
  double bisection;
  double bisection_capacity;
};

Graph cycle(int n) {
  Graph g(n);
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  g.finalize();
  return g;
}

std::vector<DegenerateInput> degenerate_inputs() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<DegenerateInput> inputs;
  {
    Graph g(6);  // two triangles, demand across them
    for (const int base : {0, 3}) {
      g.add_edge(base, base + 1);
      g.add_edge(base + 1, base + 2);
      g.add_edge(base + 2, base);
    }
    g.finalize();
    TrafficMatrix tm;
    tm.demands = {{0, 4, 1.0}, {1, 2, 1.0}};
    inputs.push_back({"two components", std::move(g), tm, 0.0, 0.0, 0.0});
  }
  {
    Graph g(4);  // a triangle plus node 3 without links
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    g.finalize();
    TrafficMatrix tm;
    tm.demands = {{0, 3, 1.0}, {1, 2, 1.0}};
    inputs.push_back({"isolated node", std::move(g), tm, 0.0, 1.0, 2.0});
  }
  inputs.push_back({"no crossing demand", cycle(4), TrafficMatrix{}, kInf,
                    kInf, 2.0});
  {
    Graph g(2);
    g.add_edge(0, 1);
    g.finalize();
    TrafficMatrix tm;
    tm.demands = {{0, 1, 1.0}};
    inputs.push_back({"two nodes", std::move(g), tm, 1.0, 1.0, 1.0});
  }
  {
    TrafficMatrix tm;
    tm.demands = {{0, 2, 1.0}};
    inputs.push_back({"one demand", cycle(5), tm, 2.0, 2.0, 2.0});
  }
  return inputs;
}

TEST(DegenerateCut, EveryEstimatorAnswers) {
  // Every battery member and both balanced-cut estimators return without
  // throwing, never below the optimum, and with the sparsity of the side
  // they report; the survey finds the optimum and certifies it.
  for (const DegenerateInput& in : degenerate_inputs()) {
    SCOPED_TRACE(in.name);
    const Graph& g = in.g;
    const TrafficMatrix& tm = in.tm;
    const std::vector<cuts::CutResult> members = {
        cuts::sparsest_cut_brute_force(g, tm),
        cuts::sparsest_cut_one_node(g, tm),
        cuts::sparsest_cut_two_node(g, tm),
        cuts::sparsest_cut_expanding(g, tm),
        cuts::sparsest_cut_eigenvector(g, tm),
        cuts::sparsest_cut_st_mincut(g, tm, 8, 1),
        cuts::bisection_sparsity(g, tm)};
    for (const cuts::CutResult& r : members) {
      EXPECT_GE(r.sparsity, in.optimum) << r.method;
      if (!r.side.empty()) {
        EXPECT_EQ(bits(cuts::cut_sparsity(g, tm, r.side)), bits(r.sparsity))
            << r.method;
      }
    }
    EXPECT_EQ(members.front().sparsity, in.optimum);  // complete brute force
    EXPECT_EQ(members.back().sparsity, in.bisection);
    EXPECT_EQ(cuts::bisection_capacity(g), in.bisection_capacity);
    const cuts::SparseCutSurvey survey = cuts::best_sparse_cut(g, tm);
    EXPECT_EQ(survey.best.sparsity, in.optimum);
    EXPECT_EQ(survey.best.bound, cuts::CutBound::Exact);
  }
}

TEST(DegenerateCut, ZeroSparsityIsExact) {
  // With the enumeration off, only a best of 0 certifies: no cut is
  // sparser. cut_upper_bound then skips the bisection.
  for (const DegenerateInput& in : degenerate_inputs()) {
    SCOPED_TRACE(in.name);
    const cuts::SparseCutSurvey survey =
        cuts::best_sparse_cut(in.g, in.tm, /*brute_force_cap=*/0);
    const bool single_pair = in.tm.demands.size() == 1;
    EXPECT_EQ(survey.best.bound == cuts::CutBound::Exact,
              in.optimum == 0.0 || single_pair);
    CutBoundOptions cb;
    cb.brute_force_cap = 0;
    const CutBoundResult bound = cut_upper_bound(in.g, in.tm, cb);
    if (in.optimum == 0.0) {
      EXPECT_EQ(bound.bound, 0.0);
      EXPECT_EQ(bound.kind, cuts::CutBound::Exact);
      EXPECT_NE(bound.method, "bisection");
    }
  }
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

// FNV-1a over the 0/1 membership bytes.
std::uint64_t side_hash(const std::vector<std::uint8_t>& side) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : side) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string pin_line(const std::string& cell, const std::string& what,
                     double value, const std::vector<std::uint8_t>* side) {
  char buf[96];
  if (side != nullptr) {
    std::snprintf(buf, sizeof buf, " %a %016llx", value,
                  static_cast<unsigned long long>(side_hash(*side)));
  } else {
    std::snprintf(buf, sizeof buf, " %a", value);
  }
  return cell + " " + what + buf;
}

/// Every cut estimator's value (hexfloat) and side (hash) on BCube, DCell,
/// FatTree, Hypercube and Jellyfish instances of 16-48 servers under
/// A2A/RM(1)/LM. Two instances have <= 14 nodes, so their brute force is
/// complete; Hypercube(d=4) (16 nodes) takes the exact bisection path.
std::vector<std::string> estimator_pins() {
  std::vector<Network> nets;
  nets.push_back(family_representative(Family::BCube, 16, 1));
  nets.push_back(family_representative(Family::DCell, 20, 1));
  nets.push_back(family_representative(Family::FatTree, 16, 1));
  nets.push_back(family_representative(Family::Hypercube, 16, 1));
  nets.push_back(family_representative(Family::Jellyfish, 32, 1));
  nets.push_back(make_hypercube(3, 2));
  nets.back().name += "x2";
  nets.push_back(make_jellyfish(14, 4, 2, 1));
  std::vector<std::string> lines;
  for (const Network& net : nets) {
    const Graph& g = net.graph;
    for (const TrafficMatrix& tm : {all_to_all(net), random_matching(net, 1, 1),
                                    longest_matching(net)}) {
      const std::string cell = net.name + " " + tm.name;
      std::vector<cuts::CutResult> rs = {
          cuts::sparsest_cut_brute_force(g, tm),
          cuts::sparsest_cut_one_node(g, tm),
          cuts::sparsest_cut_two_node(g, tm),
          cuts::sparsest_cut_expanding(g, tm),
          cuts::sparsest_cut_eigenvector(g, tm),
          cuts::sparsest_cut_st_mincut(g, tm),
          cuts::bisection_sparsity(g, tm)};
      if (g.num_nodes() <= 14) {
        rs.push_back(cuts::sparsest_cut_brute_force(g, tm, 1L << 20));
        EXPECT_EQ(rs.back().bound, cuts::CutBound::Exact) << cell;
        rs.back().method += "-complete";
      }
      rs.push_back(cuts::bisection_sparsity(g, tm, /*exact_max=*/0));
      rs.back().method += "-kl";
      for (const cuts::CutResult& r : rs) {
        lines.push_back(pin_line(cell, r.method + "/" + cuts::to_string(r.bound),
                                 r.sparsity, &r.side));
      }
    }
    const BipartitionResult kl = min_bisection(g);
    lines.push_back(pin_line(net.name, "min_bisection", kl.cut_capacity,
                             &kl.side));
    lines.push_back(pin_line(net.name, "bisection_capacity",
                             cuts::bisection_capacity(g), nullptr));
    lines.push_back(pin_line(net.name, "bisection_capacity-kl",
                             cuts::bisection_capacity(g, /*exact_max=*/0),
                             nullptr));
  }
  return lines;
}

TEST(SparseCut, EstimatorBitsAndSidesArePinned) {
  // Recorded before incremental cut evaluation: every value and side must
  // stay bit-identical however the candidates are priced.
  const std::vector<std::string> kPinned = {
      "BCube(n=2,k=3) A2A brute-force/upper 0x1.1111111111111p+2 4ae0045900fc1905",
      "BCube(n=2,k=3) A2A one-node/upper 0x1.1111111111111p+2 57a3e9bec8b15e24",
      "BCube(n=2,k=3) A2A two-node/upper 0x1.1111111111111p+2 5cfc9ca56ba79ea5",
      "BCube(n=2,k=3) A2A expanding/upper 0x1.8p+1 1cefcfb027a39869",
      "BCube(n=2,k=3) A2A eigenvector/upper 0x1p+1 2f0f96c83bce12f9",
      "BCube(n=2,k=3) A2A st-mincut/upper 0x1.1111111111111p+2 57a3e9bec8b15e24",
      "BCube(n=2,k=3) A2A bisection/upper 0x1p+1 8d4666b3da55398d",
      "BCube(n=2,k=3) A2A bisection-kl/upper 0x1p+1 8d4666b3da55398d",
      "BCube(n=2,k=3) RM(1) brute-force/upper 0x1p+2 4ae0045900fc1905",
      "BCube(n=2,k=3) RM(1) one-node/upper 0x1p+2 57a3e9bec8b15e24",
      "BCube(n=2,k=3) RM(1) two-node/upper 0x1p+2 d5eb7d6c2966b7df",
      "BCube(n=2,k=3) RM(1) expanding/upper 0x1.3333333333333p+1 1cefcfb027a39869",
      "BCube(n=2,k=3) RM(1) eigenvector/upper 0x1p+1 2a6f92f2e26c8713",
      "BCube(n=2,k=3) RM(1) st-mincut/upper 0x1p+2 57a3e9bec8b15e24",
      "BCube(n=2,k=3) RM(1) bisection/upper 0x1p+1 8d4666b3da55398d",
      "BCube(n=2,k=3) RM(1) bisection-kl/upper 0x1p+1 8d4666b3da55398d",
      "BCube(n=2,k=3) LM brute-force/upper 0x1p+2 4ae0045900fc1905",
      "BCube(n=2,k=3) LM one-node/upper 0x1p+2 57a3e9bec8b15e24",
      "BCube(n=2,k=3) LM two-node/upper 0x1p+2 d5eb7d6c2966b7df",
      "BCube(n=2,k=3) LM expanding/upper 0x1.8p+0 1cefcfb027a39869",
      "BCube(n=2,k=3) LM eigenvector/upper 0x1p+0 2f0f96c83bce12f9",
      "BCube(n=2,k=3) LM st-mincut/upper 0x1p+2 57a3e9bec8b15e24",
      "BCube(n=2,k=3) LM bisection/upper 0x1p+0 8d4666b3da55398d",
      "BCube(n=2,k=3) LM bisection-kl/upper 0x1p+0 8d4666b3da55398d",
      "BCube(n=2,k=3) min_bisection 0x1p+3 8d4666b3da55398d",
      "BCube(n=2,k=3) bisection_capacity 0x1p+3",
      "BCube(n=2,k=3) bisection_capacity-kl 0x1p+3",
      "DCell(n=4,l=1) A2A brute-force/upper 0x1.30c30c30c30ccp+1 3b15b175c0d236d6",
      "DCell(n=4,l=1) A2A one-node/upper 0x1.0d79435e50d78p+1 bb968dd28b363eac",
      "DCell(n=4,l=1) A2A two-node/upper 0x1.1c71c71c71c6fp+0 4512a01ce17889cf",
      "DCell(n=4,l=1) A2A expanding/upper 0x1.aaaaaaaaaaab9p-1 057d40dc8d38e628",
      "DCell(n=4,l=1) A2A eigenvector/upper 0x1.e79e79e79e7adp-1 66edc1557460a1bb",
      "DCell(n=4,l=1) A2A st-mincut/upper 0x1.0d79435e50d78p+1 bb968dd28b363eac",
      "DCell(n=4,l=1) A2A bisection/upper 0x1.333333333333ep+0 b0673145a5bb3c88",
      "DCell(n=4,l=1) A2A bisection-kl/upper 0x1.333333333333ep+0 b0673145a5bb3c88",
      "DCell(n=4,l=1) RM(1) brute-force/upper 0x1.aaaaaaaaaaaabp+0 3b15b175c0d236d6",
      "DCell(n=4,l=1) RM(1) one-node/upper 0x1p+1 bb968dd28b363eac",
      "DCell(n=4,l=1) RM(1) two-node/upper 0x1p+0 4512a01ce17889cf",
      "DCell(n=4,l=1) RM(1) expanding/upper 0x1.999999999999ap-1 3e5c763fc6abaa20",
      "DCell(n=4,l=1) RM(1) eigenvector/upper 0x1p+0 e339a72057a3474f",
      "DCell(n=4,l=1) RM(1) st-mincut/upper 0x1p+1 adbdd619a8c5971e",
      "DCell(n=4,l=1) RM(1) bisection/upper 0x1p+0 b0673145a5bb3c88",
      "DCell(n=4,l=1) RM(1) bisection-kl/upper 0x1p+0 b0673145a5bb3c88",
      "DCell(n=4,l=1) LM brute-force/upper 0x1.aaaaaaaaaaaabp+0 3b15b175c0d236d6",
      "DCell(n=4,l=1) LM one-node/upper 0x1p+1 bb968dd28b363eac",
      "DCell(n=4,l=1) LM two-node/upper 0x1p+0 4512a01ce17889cf",
      "DCell(n=4,l=1) LM expanding/upper 0x1p-1 057d40dc8d38e628",
      "DCell(n=4,l=1) LM eigenvector/upper 0x1.5555555555555p-1 66edc1557460a1bb",
      "DCell(n=4,l=1) LM st-mincut/upper 0x1p+1 adbdd619a8c5971e",
      "DCell(n=4,l=1) LM bisection/upper 0x1.8p-1 38f4369e450ac6e5",
      "DCell(n=4,l=1) LM bisection-kl/upper 0x1.8p-1 38f4369e450ac6e5",
      "DCell(n=4,l=1) min_bisection 0x1.8p+2 b0673145a5bb3c88",
      "DCell(n=4,l=1) bisection_capacity 0x1.8p+2",
      "DCell(n=4,l=1) bisection_capacity-kl 0x1.8p+2",
      "FatTree(k=4) A2A brute-force/upper 0x1p+2 ae5ab5207fb80177",
      "FatTree(k=4) A2A one-node/upper 0x1.2492492492492p+1 0c593f1b0d139064",
      "FatTree(k=4) A2A two-node/upper 0x1.5555555555555p+1 df141618a0e241cf",
      "FatTree(k=4) A2A expanding/upper 0x1.2492492492492p+1 0c593f1b0d139064",
      "FatTree(k=4) A2A eigenvector/upper 0x1.2492492492492p+1 9faeb704c872d2c2",
      "FatTree(k=4) A2A st-mincut/upper 0x1.2492492492492p+1 0c593f1b0d139064",
      "FatTree(k=4) A2A bisection/upper 0x1p+2 642ee9439cd8e28b",
      "FatTree(k=4) A2A bisection-kl/upper 0x1p+2 642ee9439cd8e28b",
      "FatTree(k=4) RM(1) brute-force/upper 0x1.4p+1 8168ab554296473f",
      "FatTree(k=4) RM(1) one-node/upper 0x1p+1 0c593f1b0d139064",
      "FatTree(k=4) RM(1) two-node/upper 0x1p+1 df141618a0e241cf",
      "FatTree(k=4) RM(1) expanding/upper 0x1p+1 0c593f1b0d139064",
      "FatTree(k=4) RM(1) eigenvector/upper 0x1p+1 9faeb704c872d2c2",
      "FatTree(k=4) RM(1) st-mincut/upper 0x1p+1 0c593f1b0d139064",
      "FatTree(k=4) RM(1) bisection/upper 0x1p+2 7cd64999a0af1217",
      "FatTree(k=4) RM(1) bisection-kl/upper 0x1p+2 7cd64999a0af1217",
      "FatTree(k=4) LM brute-force/upper 0x1p+1 4694530fee2d34e6",
      "FatTree(k=4) LM one-node/upper 0x1p+1 0c593f1b0d139064",
      "FatTree(k=4) LM two-node/upper 0x1p+1 df141618a0e241cf",
      "FatTree(k=4) LM expanding/upper 0x1p+1 0c593f1b0d139064",
      "FatTree(k=4) LM eigenvector/upper 0x1p+1 9faeb704c872d2c2",
      "FatTree(k=4) LM st-mincut/upper 0x1p+1 0c593f1b0d139064",
      "FatTree(k=4) LM bisection/upper 0x1p+2 642ee9439cd8e28b",
      "FatTree(k=4) LM bisection-kl/upper 0x1p+2 642ee9439cd8e28b",
      "FatTree(k=4) min_bisection 0x1p+3 642ee9439cd8e28b",
      "FatTree(k=4) bisection_capacity 0x1p+3",
      "FatTree(k=4) bisection_capacity-kl 0x1p+3",
      "Hypercube(d=4) A2A brute-force/upper 0x1.4514514514514p+1 9fc22f7ac903f13a",
      "Hypercube(d=4) A2A one-node/upper 0x1.1111111111111p+2 392209f14dea4c24",
      "Hypercube(d=4) A2A two-node/upper 0x1.b6db6db6db6dbp+1 5b07441e7da0c85f",
      "Hypercube(d=4) A2A expanding/upper 0x1.bed61bed61bedp+1 2fde7fe5f4d1af96",
      "Hypercube(d=4) A2A eigenvector/upper 0x1p+1 c17a47b57561484d",
      "Hypercube(d=4) A2A st-mincut/upper 0x1.1111111111111p+2 392209f14dea4c24",
      "Hypercube(d=4) A2A bisection/exact 0x1p+1 9790210c17b78b85",
      "Hypercube(d=4) A2A bisection-kl/upper 0x1p+1 9790210c17b78b85",
      "Hypercube(d=4) RM(1) brute-force/upper 0x1.2aaaaaaaaaaabp+1 a81eb2bc6ce9ea43",
      "Hypercube(d=4) RM(1) one-node/upper 0x1p+2 392209f14dea4c24",
      "Hypercube(d=4) RM(1) two-node/upper 0x1.8p+1 5b07441e7da0c85f",
      "Hypercube(d=4) RM(1) expanding/upper 0x1.8p+1 2fde7fe5f4d1af96",
      "Hypercube(d=4) RM(1) eigenvector/upper 0x1p+1 c17a47b57561484d",
      "Hypercube(d=4) RM(1) st-mincut/upper 0x1p+2 392209f14dea4c24",
      "Hypercube(d=4) RM(1) bisection/exact 0x1p+1 27afd649e35ec2d1",
      "Hypercube(d=4) RM(1) bisection-kl/upper 0x1p+1 9fc2307ac903f2ed",
      "Hypercube(d=4) LM brute-force/upper 0x1.6db6db6db6db7p+0 9fc22f7ac903f13a",
      "Hypercube(d=4) LM one-node/upper 0x1p+2 392209f14dea4c24",
      "Hypercube(d=4) LM two-node/upper 0x1.8p+1 5b07441e7da0c85f",
      "Hypercube(d=4) LM expanding/upper 0x1.3333333333333p+1 2fde7fe5f4d1af96",
      "Hypercube(d=4) LM eigenvector/upper 0x1p+0 c17a47b57561484d",
      "Hypercube(d=4) LM st-mincut/upper 0x1p+2 392209f14dea4c24",
      "Hypercube(d=4) LM bisection/exact 0x1p+0 9790210c17b78b85",
      "Hypercube(d=4) LM bisection-kl/upper 0x1p+0 9790210c17b78b85",
      "Hypercube(d=4) min_bisection 0x1p+3 9790210c17b78b85",
      "Hypercube(d=4) bisection_capacity 0x1p+3",
      "Hypercube(d=4) bisection_capacity-kl 0x1p+3",
      "Jellyfish(n=32,r=7) A2A brute-force/upper 0x1.6aaaaaaaaaaabp+2 32e66ea5191ef5eb",
      "Jellyfish(n=32,r=7) A2A one-node/upper 0x1.ce739ce739ce7p+2 07295d91aa94b524",
      "Jellyfish(n=32,r=7) A2A two-node/upper 0x1.999999999999ap+2 fe0e4a0234c1eabd",
      "Jellyfish(n=32,r=7) A2A expanding/upper 0x1.1555555555555p+2 a89e5de69a7bf02f",
      "Jellyfish(n=32,r=7) A2A eigenvector/upper 0x1.f1f1f1f1f1f1fp+1 ee2cba32d6f925dc",
      "Jellyfish(n=32,r=7) A2A st-mincut/upper 0x1.ce739ce739ce7p+2 584eb43d82b8e2aa",
      "Jellyfish(n=32,r=7) A2A bisection/upper 0x1.ep+1 e62a76c4bb660925",
      "Jellyfish(n=32,r=7) A2A bisection-kl/upper 0x1.ep+1 e62a76c4bb660925",
      "Jellyfish(n=32,r=7) RM(1) brute-force/upper 0x1.4p+2 f7f8774e3cdaeea1",
      "Jellyfish(n=32,r=7) RM(1) one-node/upper 0x1.cp+2 07295d91aa94b524",
      "Jellyfish(n=32,r=7) RM(1) two-node/upper 0x1.8p+2 fe0e4a0234c1eabd",
      "Jellyfish(n=32,r=7) RM(1) expanding/upper 0x1.db6db6db6db6ep+1 a89e5de69a7bf02f",
      "Jellyfish(n=32,r=7) RM(1) eigenvector/upper 0x1.8cccccccccccdp+1 5a2f4e1edb5b5b12",
      "Jellyfish(n=32,r=7) RM(1) st-mincut/upper 0x1.cp+2 07295d91aa94b524",
      "Jellyfish(n=32,r=7) RM(1) bisection/upper 0x1.aaaaaaaaaaaabp+1 e62a76c4bb660925",
      "Jellyfish(n=32,r=7) RM(1) bisection-kl/upper 0x1.aaaaaaaaaaaabp+1 e62a76c4bb660925",
      "Jellyfish(n=32,r=7) LM brute-force/upper 0x1.4p+2 1ca501bbe3fefb9b",
      "Jellyfish(n=32,r=7) LM one-node/upper 0x1.cp+2 07295d91aa94b524",
      "Jellyfish(n=32,r=7) LM two-node/upper 0x1.8p+2 fe0e4a0234c1eabd",
      "Jellyfish(n=32,r=7) LM expanding/upper 0x1.ap+1 a89e5de69a7bf02f",
      "Jellyfish(n=32,r=7) LM eigenvector/upper 0x1.2db6db6db6db7p+1 5f18ee5a2c329080",
      "Jellyfish(n=32,r=7) LM st-mincut/upper 0x1.cp+2 584eb43d82b8e2aa",
      "Jellyfish(n=32,r=7) LM bisection/upper 0x1.2762762762762p+1 e62a76c4bb660925",
      "Jellyfish(n=32,r=7) LM bisection-kl/upper 0x1.2762762762762p+1 e62a76c4bb660925",
      "Jellyfish(n=32,r=7) min_bisection 0x1.ep+4 e62a76c4bb660925",
      "Jellyfish(n=32,r=7) bisection_capacity 0x1.ep+4",
      "Jellyfish(n=32,r=7) bisection_capacity-kl 0x1.ep+4",
      "Hypercube(d=3)x2 A2A brute-force/exact 0x1p+1 e77ae5d24eadd455",
      "Hypercube(d=3)x2 A2A one-node/upper 0x1.b6db6db6db6dbp+1 89cd31291d2aefa4",
      "Hypercube(d=3)x2 A2A two-node/upper 0x1.5555555555555p+1 4f1facb36efec27f",
      "Hypercube(d=3)x2 A2A expanding/upper 0x1.8p+1 1283f488d742b8d7",
      "Hypercube(d=3)x2 A2A eigenvector/upper 0x1p+1 d8dd1229b774fc79",
      "Hypercube(d=3)x2 A2A st-mincut/upper 0x1.b6db6db6db6dbp+1 89cd31291d2aefa4",
      "Hypercube(d=3)x2 A2A bisection/exact 0x1p+1 e77ae5d24eadd455",
      "Hypercube(d=3)x2 A2A brute-force-complete/exact 0x1p+1 e77ae5d24eadd455",
      "Hypercube(d=3)x2 A2A bisection-kl/upper 0x1p+1 e77ae5d24eadd455",
      "Hypercube(d=3)x2 RM(1) brute-force/exact 0x1.8p+0 6c28db07905b4ea7",
      "Hypercube(d=3)x2 RM(1) one-node/upper 0x1.8p+1 89cd31291d2aefa4",
      "Hypercube(d=3)x2 RM(1) two-node/upper 0x1p+1 4f1facb36efec27f",
      "Hypercube(d=3)x2 RM(1) expanding/upper 0x1.8p+0 4b1a4488f69756c7",
      "Hypercube(d=3)x2 RM(1) eigenvector/upper 0x1p+1 cc34f9ff3a2b56b5",
      "Hypercube(d=3)x2 RM(1) st-mincut/upper 0x1.8p+1 89cd31291d2aefa4",
      "Hypercube(d=3)x2 RM(1) bisection/exact 0x1.8p+0 6c28db07905b4ea7",
      "Hypercube(d=3)x2 RM(1) brute-force-complete/exact 0x1.8p+0 6c28db07905b4ea7",
      "Hypercube(d=3)x2 RM(1) bisection-kl/upper 0x1p+1 e77ae5d24eadd455",
      "Hypercube(d=3)x2 LM brute-force/exact 0x1p+0 e77ae5d24eadd455",
      "Hypercube(d=3)x2 LM one-node/upper 0x1.8p+1 89cd31291d2aefa4",
      "Hypercube(d=3)x2 LM two-node/upper 0x1p+1 4f1facb36efec27f",
      "Hypercube(d=3)x2 LM expanding/upper 0x1.8p+0 1283f488d742b8d7",
      "Hypercube(d=3)x2 LM eigenvector/upper 0x1p+0 d8dd1229b774fc79",
      "Hypercube(d=3)x2 LM st-mincut/upper 0x1.8p+1 89cd31291d2aefa4",
      "Hypercube(d=3)x2 LM bisection/exact 0x1p+0 e77ae5d24eadd455",
      "Hypercube(d=3)x2 LM brute-force-complete/exact 0x1p+0 e77ae5d24eadd455",
      "Hypercube(d=3)x2 LM bisection-kl/upper 0x1p+0 e77ae5d24eadd455",
      "Hypercube(d=3)x2 min_bisection 0x1p+2 e77ae5d24eadd455",
      "Hypercube(d=3)x2 bisection_capacity 0x1p+2",
      "Hypercube(d=3)x2 bisection_capacity-kl 0x1p+2",
      "Jellyfish(n=14,r=4) A2A brute-force/exact 0x1.0cccccccccccap+1 0884ce9d4547d1bf",
      "Jellyfish(n=14,r=4) A2A one-node/upper 0x1.13b13b13b13b3p+2 8c81d205214c3384",
      "Jellyfish(n=14,r=4) A2A two-node/upper 0x1.c000000000002p+1 81c555a57c1a6c35",
      "Jellyfish(n=14,r=4) A2A expanding/upper 0x1.3e93e93e93e9p+1 d1e5e54f2d2d8936",
      "Jellyfish(n=14,r=4) A2A eigenvector/upper 0x1.0cccccccccccap+1 0884ce9d4547d1bf",
      "Jellyfish(n=14,r=4) A2A st-mincut/upper 0x1.13b13b13b13b3p+2 8c81d205214c3384",
      "Jellyfish(n=14,r=4) A2A bisection/exact 0x1.249249249248ep+1 c7217fce6cd1bb76",
      "Jellyfish(n=14,r=4) A2A brute-force-complete/exact 0x1.0cccccccccccap+1 0884ce9d4547d1bf",
      "Jellyfish(n=14,r=4) A2A bisection-kl/upper 0x1.249249249248ep+1 43e6f09fb8e0d5d4",
      "Jellyfish(n=14,r=4) RM(1) brute-force/exact 0x1.999999999999ap+0 1255a20d3459afd7",
      "Jellyfish(n=14,r=4) RM(1) one-node/upper 0x1p+2 8c81d205214c3384",
      "Jellyfish(n=14,r=4) RM(1) two-node/upper 0x1.8p+1 81c555a57c1a6c35",
      "Jellyfish(n=14,r=4) RM(1) expanding/upper 0x1p+1 7b707125e6ba9ddc",
      "Jellyfish(n=14,r=4) RM(1) eigenvector/upper 0x1p+1 39ccef0fc6bedbe2",
      "Jellyfish(n=14,r=4) RM(1) st-mincut/upper 0x1p+2 8c81d205214c3384",
      "Jellyfish(n=14,r=4) RM(1) bisection/exact 0x1p+1 7467b8ce0a57bebe",
      "Jellyfish(n=14,r=4) RM(1) brute-force-complete/exact 0x1.999999999999ap+0 1255a20d3459afd7",
      "Jellyfish(n=14,r=4) RM(1) bisection-kl/upper 0x1p+1 650e0ce4d621e444",
      "Jellyfish(n=14,r=4) LM brute-force/exact 0x1.2492492492492p+0 c07ba745a2b0e688",
      "Jellyfish(n=14,r=4) LM one-node/upper 0x1p+2 8c81d205214c3384",
      "Jellyfish(n=14,r=4) LM two-node/upper 0x1.8p+1 81c555a57c1a6c35",
      "Jellyfish(n=14,r=4) LM expanding/upper 0x1.999999999999ap+0 d1e5e54f2d2d8936",
      "Jellyfish(n=14,r=4) LM eigenvector/upper 0x1.2492492492492p+0 36f2e9bb471e1c16",
      "Jellyfish(n=14,r=4) LM st-mincut/upper 0x1p+2 8c81d205214c3384",
      "Jellyfish(n=14,r=4) LM bisection/exact 0x1.2492492492492p+0 c7217fce6cd1bb76",
      "Jellyfish(n=14,r=4) LM brute-force-complete/exact 0x1.2492492492492p+0 c07ba745a2b0e688",
      "Jellyfish(n=14,r=4) LM bisection-kl/upper 0x1.2492492492492p+0 650e0ce4d621e444",
      "Jellyfish(n=14,r=4) min_bisection 0x1p+3 43e6f09fb8e0d5d4",
      "Jellyfish(n=14,r=4) bisection_capacity 0x1p+3",
      "Jellyfish(n=14,r=4) bisection_capacity-kl 0x1p+3",
  };
  const std::vector<std::string> lines = estimator_pins();
  ASSERT_EQ(lines.size(), kPinned.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kPinned[i]) << "line " << i;
  }
}


// --- incremental cut evaluation (cuts/cut_tracker.h) -------------------------

using cuts::detail::CutTracker;

struct Instance {
  Graph g;
  TrafficMatrix tm;
};

/// How random_instance draws capacities: uniform in [0.1, 3.7]; all 0.1
/// (many exact ties); or from {0.1, 0.2, 0.3}, whose sums round
/// differently by summation order (0.1 + 0.2 != 0.3), so cuts of equal
/// real sparsity price a few ulps apart.
enum class Caps { Random, Uniform, Mixed };

/// A connected random multigraph on n nodes (a ring plus n random chords)
/// with non-dyadic capacities, and a TM of 1/h demands between random host
/// pairs plus some 1/3 (or, with Caps::Mixed, 1/6 and 2/3) demands, a
/// duplicate and a self demand.
Instance random_instance(int n, std::uint64_t seed, Caps caps) {
  Rng rng(seed);
  const auto cap = [&] {
    switch (caps) {
      case Caps::Uniform:
        return 0.1;
      case Caps::Mixed:
        return 0.1 * static_cast<double>(1 + rng.next_u64(3));
      case Caps::Random:
        break;
    }
    return rng.next_double(0.1, 3.7);
  };
  Instance inst{Graph(n), {}};
  for (int v = 0; v < n; ++v) inst.g.add_edge(v, (v + 1) % n, cap());
  for (int k = 0; k < n; ++k) {
    const int u = static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(n)));
    const int w = static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(n)));
    if (u != w) inst.g.add_edge(u, w, cap());
  }
  inst.g.finalize();
  const int h = n - 1;  // node n-1 sends and receives nothing
  for (int u = 0; u < h; ++u) {
    for (int w = 0; w < h; ++w) {
      if (u != w && rng.next_bool(0.5)) {
        inst.tm.demands.push_back({u, w, 1.0 / h});
      }
    }
  }
  const double extra[3] = {1.0 / 3.0, 1.0 / 6.0, 2.0 / 3.0};
  for (int k = 0; k < n; ++k) {
    inst.tm.demands.push_back(
        {static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(h))),
         static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(h))),
         caps == Caps::Mixed ? extra[rng.next_u64(3)] : extra[0]});
  }
  inst.tm.demands.push_back(inst.tm.demands.front());
  inst.tm.demands.push_back({0, 0, 1.0 / 3.0});
  return inst;
}

TEST(CutTracker, TrackedSumsStayWithinTheirBounds) {
  // After every flip, each tracked sum lies within its drift bound of a
  // long-double recount (widened by the recount's own summation bound),
  // and the bound stays far below the values it bounds.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    const int n = 9 + static_cast<int>(seed);
    const Instance inst =
        random_instance(n, seed, static_cast<Caps>(seed % 3));
    const Graph& g = inst.g;
    CutTracker cut(g, &inst.tm);
    Rng rng(mix_seed(seed, 0xF11));
    const long double ulp = std::numeric_limits<long double>::epsilon();
    double total_cap = 0.0;
    for (int e = 0; e < g.num_edges(); ++e) total_cap += g.edge_cap(e);
    for (int step = 0; step < 3000; ++step) {
      cut.flip(static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(n))));
      const std::vector<std::uint8_t>& side = cut.side();
      long double cap = 0.0L;
      long double cap_mag = 0.0L;
      for (int e = 0; e < g.num_edges(); ++e) {
        cap_mag += g.edge_cap(e);
        if (side[static_cast<std::size_t>(g.edge_u(e))] !=
            side[static_cast<std::size_t>(g.edge_v(e))]) {
          cap += g.edge_cap(e);
        }
      }
      long double dem[2] = {0.0L, 0.0L};
      long double dem_mag = 0.0L;
      for (const Demand& d : inst.tm.demands) {
        dem_mag += d.amount;
        const std::uint8_t ss = side[static_cast<std::size_t>(d.src)];
        if (ss != side[static_cast<std::size_t>(d.dst)]) dem[ss] += d.amount;
      }
      const long double recount_slack =
          2.0L * static_cast<long double>(g.num_edges() +
                                          inst.tm.demands.size()) *
          ulp * (cap_mag + dem_mag);
      ASSERT_LE(std::fabs(static_cast<long double>(cut.capacity()) - cap),
                cut.capacity_error() + recount_slack)
          << "seed " << seed << " step " << step;
      for (int dir = 0; dir < 2; ++dir) {
        ASSERT_LE(std::fabs(static_cast<long double>(cut.demand(dir)) -
                            dem[dir]),
                  cut.demand_error(dir) + recount_slack)
            << "seed " << seed << " step " << step << " dir " << dir;
      }
    }
    EXPECT_LT(cut.capacity_error(), 1e-9 * total_cap) << "seed " << seed;
    EXPECT_LT(cut.demand_error(0), 1e-9) << "seed " << seed;
  }
}

TEST(CutTracker, SkippedCutsNeverBeatTheRunningBest) {
  // Exhaustively on <= 12 nodes: whenever the tracker says a cut cannot
  // beat the running best, its from-scratch price is indeed not below it.
  // The tightest such best is the next double above the cut's own price;
  // there the tracker must never skip.
  for (std::uint64_t seed = 11; seed < 29; ++seed) {
    const int n = 8 + static_cast<int>(seed % 5);
    const Instance inst =
        random_instance(n, seed, static_cast<Caps>(seed % 3));
    CutTracker cut(inst.g, &inst.tm);
    CutTracker cap_only(inst.g, nullptr);
    const double kInf = std::numeric_limits<double>::infinity();
    double best = kInf;
    double best_cap = best;
    long skipped = 0;
    long skipped_cap = 0;
    for (long mask = 1; mask < (1L << n) - 1; ++mask) {
      for (auto diff = static_cast<unsigned long>(mask ^ (mask - 1));
           diff != 0; diff &= diff - 1) {
        cut.flip(std::countr_zero(diff));
        cap_only.flip(std::countr_zero(diff));
      }
      const double s = cuts::cut_sparsity(inst.g, inst.tm, cut.side());
      ASSERT_FALSE(cut.sparsity_cannot_beat(std::nextafter(s, kInf)))
          << "seed " << seed << " mask " << mask;
      if (cut.sparsity_cannot_beat(best)) {
        ++skipped;
        ASSERT_FALSE(s < best) << "seed " << seed << " mask " << mask;
      }
      best = std::min(best, s);
      const double c = cut_capacity(inst.g, cap_only.side());
      ASSERT_FALSE(cap_only.capacity_cannot_beat(std::nextafter(c, kInf)))
          << "seed " << seed << " mask " << mask;
      if (cap_only.capacity_cannot_beat(best_cap)) {
        ++skipped_cap;
        ASSERT_FALSE(c < best_cap) << "seed " << seed << " mask " << mask;
      }
      best_cap = std::min(best_cap, c);
    }
    // The bound is not vacuous: most candidates are skipped.
    EXPECT_GT(skipped, (1L << n) / 2) << "seed " << seed;
    EXPECT_GT(skipped_cap, (1L << n) / 2) << "seed " << seed;
  }
}

/// The battery's orders, each priced by a plain cut_sparsity loop.
struct PlainBest {
  double sparsity = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> side;
  void offer(const Graph& g, const TrafficMatrix& tm,
             const std::vector<std::uint8_t>& candidate) {
    const double s = cuts::cut_sparsity(g, tm, candidate);
    if (s < sparsity) {
      sparsity = s;
      side = candidate;
    }
  }
};

PlainBest plain_brute_force(const Graph& g, const TrafficMatrix& tm,
                            long max_cuts) {
  const int n = g.num_nodes();
  PlainBest best;
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 0);
  side[static_cast<std::size_t>(n - 1)] = 1;
  // Masks 1 .. 2^(n-1) - 2, then mask 0 (node n-1 alone) when complete.
  const long total = (1L << (n - 1)) - 1;
  const long cuts = std::min(total, max_cuts);
  for (long k = 1; k <= cuts; ++k) {
    const long mask = k < total ? k : 0;
    for (int v = 0; v < n - 1; ++v) {
      side[static_cast<std::size_t>(v)] =
          static_cast<std::uint8_t>((mask >> v) & 1);
    }
    best.offer(g, tm, side);
  }
  return best;
}

PlainBest plain_node_pairs(const Graph& g, const TrafficMatrix& tm,
                           bool pairs) {
  const int n = g.num_nodes();
  PlainBest best;
  for (int u = 0; u < n; ++u) {
    for (int v = pairs ? u + 1 : u; v < n; ++v) {
      std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 0);
      side[static_cast<std::size_t>(u)] = 1;
      side[static_cast<std::size_t>(v)] = 1;
      best.offer(g, tm, side);
      if (!pairs) break;
    }
  }
  return best;
}

PlainBest plain_expanding(const Graph& g, const TrafficMatrix& tm) {
  const int n = g.num_nodes();
  PlainBest best;
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const std::vector<int> dist = bfs_distances(g, v);
    const int max_d = *std::max_element(dist.begin(), dist.end());
    for (int radius = 0; radius < max_d; ++radius) {
      for (int u = 0; u < n; ++u) {
        side[static_cast<std::size_t>(u)] =
            dist[static_cast<std::size_t>(u)] <= radius ? 1 : 0;
      }
      best.offer(g, tm, side);
    }
  }
  return best;
}

PlainBest plain_eigenvector(const Graph& g, const TrafficMatrix& tm) {
  const int n = g.num_nodes();
  const SpectralResult spec = fiedler_vector(g);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&spec](int a, int b) {
    return spec.vector[static_cast<std::size_t>(a)] <
           spec.vector[static_cast<std::size_t>(b)];
  });
  PlainBest best;
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 0);
  for (int prefix = 1; prefix < n; ++prefix) {
    side[static_cast<std::size_t>(order[static_cast<std::size_t>(prefix - 1)])] = 1;
    best.offer(g, tm, side);
  }
  return best;
}

/// Balanced subsets with node 0 on side 0, in bisection.cpp's recursion
/// order; prices both sparsity and capacity.
void plain_balanced(const Graph& g, const TrafficMatrix& tm, PlainBest& best,
                    double& best_cap) {
  const int n = g.num_nodes();
  const int half = n / 2;
  int members = 0;
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 0);
  const auto rec = [&](auto&& self, int next) -> void {
    if (members == half) {
      best.offer(g, tm, side);
      best_cap = std::min(best_cap, cut_capacity(g, side));
      return;
    }
    if (n - next < half - members) return;
    for (int v = next; v < n; ++v) {
      ++members;
      side[static_cast<std::size_t>(v)] = 1;
      self(self, v + 1);
      side[static_cast<std::size_t>(v)] = 0;
      --members;
    }
  };
  rec(rec, 1);
}

TEST(CutTracker, EstimatorsMatchPlainCutSparsityLoops) {
  // Each enumeration returns bitwise the value and side that pricing every
  // candidate of the same order with cut_sparsity returns.
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL, 24ULL, 25ULL, 26ULL}) {
    const int n = 10 + static_cast<int>(seed % 6);
    const Instance inst =
        random_instance(n, seed, static_cast<Caps>(seed % 3));
    const Graph& g = inst.g;
    const TrafficMatrix& tm = inst.tm;
    const auto check = [&](const cuts::CutResult& r, const PlainBest& ref) {
      EXPECT_EQ(bits(r.sparsity), bits(ref.sparsity))
          << r.method << " seed " << seed;
      EXPECT_EQ(r.side, ref.side) << r.method << " seed " << seed;
    };
    check(cuts::sparsest_cut_brute_force(g, tm, 1L << 20),
          plain_brute_force(g, tm, 1L << 20));
    check(cuts::sparsest_cut_brute_force(g, tm, 300),
          plain_brute_force(g, tm, 300));
    check(cuts::sparsest_cut_one_node(g, tm), plain_node_pairs(g, tm, false));
    check(cuts::sparsest_cut_two_node(g, tm), plain_node_pairs(g, tm, true));
    check(cuts::sparsest_cut_expanding(g, tm), plain_expanding(g, tm));
    check(cuts::sparsest_cut_eigenvector(g, tm), plain_eigenvector(g, tm));
    PlainBest balanced;
    double balanced_cap = std::numeric_limits<double>::infinity();
    plain_balanced(g, tm, balanced, balanced_cap);
    const cuts::CutResult bis = cuts::bisection_sparsity(g, tm);
    ASSERT_EQ(bis.bound, cuts::CutBound::Exact);
    check(bis, balanced);
    EXPECT_EQ(bits(cuts::bisection_capacity(g)), bits(balanced_cap))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace tb
