// Property-based sweeps (TEST_P) over families, sizes and seeds: the
// paper's structural invariants must hold for every instance, not just
// hand-picked ones.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/evaluator.h"
#include "core/registry.h"
#include "cuts/sparsest_cut.h"
#include "graph/algorithms.h"
#include "mcf/engine.h"
#include "mcf/garg_konemann.h"
#include "mcf/throughput.h"
#include "tm/synthetic.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "util/rng.h"

namespace tb {
namespace {

// ---------------------------------------------------------------------------
// Invariants over every registry family.

class FamilyInvariants : public ::testing::TestWithParam<Family> {};

TEST_P(FamilyInvariants, InstancesValidateAndAreConnected) {
  for (const Network& net : family_instances(GetParam(), 1, 300, 1)) {
    net.validate();
    EXPECT_TRUE(is_connected(net.graph)) << net.name;
    EXPECT_GE(net.host_nodes().size(), 2u) << net.name;
  }
}

TEST_P(FamilyInvariants, SyntheticTmsAreHoseModel) {
  const Network net = family_representative(GetParam(), 64, 1);
  for (const TrafficMatrix& tm :
       {all_to_all(net), random_matching(net, 1, 5), random_matching(net, 5, 5),
        longest_matching(net)}) {
    validate_tm(tm, net, /*check_hose=*/true);
  }
}

TEST_P(FamilyInvariants, TmHardnessLadderHolds) {
  // Paper Fig 4: T_A2A >= T_RM(5) >= T_RM(1) >= T_LM >= T_A2A/2.
  const Network net = family_representative(GetParam(), 40, 1);
  mcf::SolveOptions opts;
  opts.epsilon = 0.04;
  mcf::ThroughputEngine engine(net);
  const double a2a = engine.solve(all_to_all(net), opts).throughput;
  const double rm5 = engine.solve(random_matching(net, 5, 3), opts).throughput;
  const double rm1 = engine.solve(random_matching(net, 1, 3), opts).throughput;
  const double lm = engine.solve(longest_matching(net), opts).throughput;
  const double tol = 1.10;  // solver gap headroom (two 4% solves compound)
  EXPECT_GE(a2a * tol, rm5) << net.name;
  EXPECT_GE(rm5 * tol, rm1) << net.name;
  EXPECT_GE(rm1 * tol, lm) << net.name;
  EXPECT_GE(lm * tol, a2a / 2.0) << net.name;  // Theorem 2
}

TEST_P(FamilyInvariants, VolumetricAndCutBoundsDominateThroughput) {
  const Network net = family_representative(GetParam(), 40, 1);
  const TrafficMatrix tm = longest_matching(net);
  mcf::SolveOptions opts;
  opts.epsilon = 0.04;
  const double thr = mcf::ThroughputEngine(net).solve(tm, opts).throughput;
  EXPECT_LE(thr, mcf::volumetric_upper_bound(net.graph, tm) * 1.001) << net.name;
  const double cut = cuts::best_sparse_cut(net.graph, tm).best.sparsity;
  EXPECT_LE(thr, cut * 1.001) << net.name;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyInvariants,
                         ::testing::ValuesIn(all_families()),
                         [](const ::testing::TestParamInfo<Family>& param) {
                           return family_name(param.param);
                         });

// ---------------------------------------------------------------------------
// GK certificate across sizes/degrees/seeds.

class GkCertificate
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GkCertificate, GapAndFeasibilityHold) {
  const auto [n, degree, seed] = GetParam();
  const Network net =
      make_jellyfish(n, degree, 1, static_cast<std::uint64_t>(seed));
  const TrafficMatrix tm =
      random_matching(net, 1, static_cast<std::uint64_t>(seed) + 100);
  mcf::GkOptions opts;
  opts.epsilon = 0.06;
  const mcf::GkResult r = mcf::GkSolver(net.graph).solve(tm, opts);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_LE(r.throughput, r.upper_bound * (1.0 + 1e-9));
  EXPECT_LE(r.upper_bound, r.throughput * (1.0 + opts.epsilon + 1e-9));
  for (int a = 0; a < net.graph.num_arcs(); ++a) {
    EXPECT_LE(r.arc_flow[static_cast<std::size_t>(a)],
              net.graph.arc_cap(a) * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GkCertificate,
                         ::testing::Combine(::testing::Values(16, 32, 64),
                                            ::testing::Values(3, 6),
                                            ::testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// Exact-vs-GK agreement across small random instances.

class SolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreement, GkWithinEpsilonOfSimplex) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Network net = make_jellyfish(12, 3, 1, seed);
  const TrafficMatrix tm = random_matching(net, 1, seed + 7);
  const double exact = mcf::throughput_exact_lp(net.graph, tm).throughput;
  mcf::GkOptions opts;
  opts.epsilon = 0.03;
  const mcf::GkResult gk = mcf::GkSolver(net.graph).solve(tm, opts);
  EXPECT_LE(gk.throughput, exact * (1.0 + 1e-6)) << "primal must lower-bound";
  EXPECT_GE(gk.throughput, exact * (1.0 - 0.035)) << "primal within gap";
  EXPECT_GE(gk.upper_bound, exact * (1.0 - 1e-6)) << "dual must upper-bound";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Hypercube closed forms across dimensions.

class HypercubeClosedForm : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeClosedForm, LongestMatchingSaturatesAllLinks) {
  // LM pairs antipodes (distance d); per-ToR hose rows of 1 then give
  // volume t*n*d over n*d unit arcs -> t = 1 exactly, empirically achieved
  // (paper §II-C: "all links will be perfectly utilized").
  const int d = GetParam();
  const Network hc = make_hypercube(d);
  const TrafficMatrix tm = longest_matching(hc);
  mcf::SolveOptions opts;
  opts.epsilon = 0.03;
  opts.kind = d <= 4 ? mcf::SolverKind::ExactLP : mcf::SolverKind::GargKonemann;
  const double thr = mcf::ThroughputEngine(hc).solve(tm, opts).throughput;
  if (d <= 4) {
    EXPECT_NEAR(thr, 1.0, 1e-6);
  } else {
    EXPECT_NEAR(thr, 1.0, 0.04);
  }
}

TEST_P(HypercubeClosedForm, AllToAllIsTwoish) {
  // Uniform shortest-path routing gives t = 2 * n/(n-1) * ... exactly:
  // total demand-weighted distance = n*d/2, capacity n*d -> t = 2 with the
  // (n-1)/n row correction folded into the demands.
  const int d = GetParam();
  const Network hc = make_hypercube(d);
  mcf::SolveOptions opts;
  opts.epsilon = 0.03;
  opts.kind = d <= 4 ? mcf::SolverKind::ExactLP : mcf::SolverKind::GargKonemann;
  const double thr =
      mcf::ThroughputEngine(hc).solve(all_to_all(hc), opts).throughput;
  const double expected = mcf::volumetric_upper_bound(hc.graph, all_to_all(hc));
  EXPECT_NEAR(thr / expected, 1.0, d <= 4 ? 1e-6 : 0.04);
}

INSTANTIATE_TEST_SUITE_P(Dims, HypercubeClosedForm, ::testing::Range(3, 7));

// ---------------------------------------------------------------------------
// Failure injection: removing capacity can only hurt.

TEST(FailureInjection, EdgeRemovalIsMonotone) {
  const Network base = make_jellyfish(20, 4, 1, 33);
  const TrafficMatrix tm = random_matching(base, 1, 5);
  mcf::SolveOptions opts;
  opts.epsilon = 0.03;
  const double full = mcf::ThroughputEngine(base).solve(tm, opts).throughput;

  // Halve the capacity of five edges (keeps connectivity trivially).
  Network degraded = base;
  Graph g(base.graph.num_nodes());
  for (int e = 0; e < base.graph.num_edges(); ++e) {
    g.add_edge(base.graph.edge_u(e), base.graph.edge_v(e),
               e < 5 ? 0.5 : base.graph.edge_cap(e));
  }
  g.finalize();
  degraded.graph = std::move(g);
  const double cut = mcf::ThroughputEngine(degraded).solve(tm, opts).throughput;
  EXPECT_LE(cut, full * (1.0 + 0.07));
}

TEST(FailureInjection, DisconnectedDemandThrows) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 3, 1.0}};
  EXPECT_THROW(mcf::GkSolver(g).solve(tm), std::runtime_error);
  // An epsilon outside [kMinEpsilon, kMaxEpsilon] is rejected by name
  // before any routing (NaN used to surface as the disconnected-demand
  // error above).
  tm.demands = {{0, 1, 1.0}};
  for (const double bad : {std::nan(""), 0.0, -0.5, 0.5, 5e-5}) {
    mcf::GkOptions opts;
    opts.epsilon = bad;
    try {
      (void)mcf::GkSolver(g).solve(tm, opts);
      ADD_FAILURE() << "epsilon " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized invariants on seeded instances: every stream below derives
// from mix_seed so the sweep is reproducible bit-for-bit, and each
// invariant is stated against *certified* quantities, so the assertions
// are exact (up to fp noise) rather than gap-padded heuristics.

class SeededInvariants : public ::testing::TestWithParam<int> {};

TEST_P(SeededInvariants, ThroughputNeverExceedsCutUpperBound) {
  const auto stream = static_cast<std::uint64_t>(GetParam());
  const std::uint64_t seed = mix_seed(0xC07, stream);
  const Network net =
      make_jellyfish(14 + 2 * GetParam(), 4, 1, seed);
  const TrafficMatrix tm =
      random_matching(net, 1 + GetParam() % 3, mix_seed(seed, 1));
  mcf::SolveOptions opts;
  opts.epsilon = 0.05;
  const double thr = mcf::ThroughputEngine(net).solve(tm, opts).throughput;
  // Any CutBound is an upper bound on the optimum, hence on every
  // certified-feasible value — the whole battery must dominate.
  CutBoundOptions cb;
  cb.seed = mix_seed(seed, 2);
  const CutBoundResult cut = cut_upper_bound(net.graph, tm, cb);
  EXPECT_LE(thr, cut.bound * (1.0 + 1e-9))
      << net.name << " via " << cut.method;
}

TEST_P(SeededInvariants, ThroughputMonotoneUnderCapacityIncrease) {
  const std::uint64_t seed = mix_seed(0xCAFE, GetParam());
  const Network net = make_jellyfish(16, 4, 1, seed);
  const TrafficMatrix tm = random_matching(net, 1, mix_seed(seed, 1));
  mcf::GkOptions opts;
  opts.epsilon = 0.05;
  mcf::GkSolver solver(net.graph);
  const mcf::GkResult before = solver.solve(tm, opts);
  // Raise a seeded subset of edge capacities: every flow feasible before
  // stays feasible, so OPT cannot drop — the new certified upper bound
  // must dominate the old certified feasible value exactly.
  Rng rng(mix_seed(seed, 2));
  for (int e = 0; e < net.graph.num_edges(); ++e) {
    if (rng.next_bool(0.5)) {
      solver.set_edge_capacity(e, solver.edge_capacity(e) * 2.0);
    }
  }
  const mcf::GkResult after = solver.solve(tm, opts);
  EXPECT_GE(after.upper_bound, before.throughput * (1.0 - 1e-9)) << net.name;
}

TEST_P(SeededInvariants, ThroughputInvariantUnderArcPermutation) {
  // The optimum is a property of the network, not of arc ids: rebuilding
  // the same topology with a permuted edge insertion order must not move
  // the exact value, and GK's certified intervals must still overlap.
  const std::uint64_t seed = mix_seed(0xD1CE, GetParam());
  const Network net = make_jellyfish(12, 3, 1, seed);
  const TrafficMatrix tm = random_matching(net, 1, mix_seed(seed, 1));

  Rng rng(mix_seed(seed, 2));
  const std::vector<int> perm = rng.permutation(net.graph.num_edges());
  Graph shuffled(net.graph.num_nodes());
  for (const int e : perm) {
    shuffled.add_edge(net.graph.edge_u(e), net.graph.edge_v(e),
                      net.graph.edge_cap(e));
  }
  shuffled.finalize();

  const double exact = mcf::throughput_exact_lp(net.graph, tm).throughput;
  const double exact_perm = mcf::throughput_exact_lp(shuffled, tm).throughput;
  EXPECT_NEAR(exact_perm / exact, 1.0, 1e-7);

  mcf::GkOptions opts;
  opts.epsilon = 0.05;
  const mcf::GkResult gk = mcf::GkSolver(net.graph).solve(tm, opts);
  const mcf::GkResult gk_perm = mcf::GkSolver(shuffled).solve(tm, opts);
  EXPECT_LE(gk.throughput, gk_perm.upper_bound * (1.0 + 1e-9));
  EXPECT_LE(gk_perm.throughput, gk.upper_bound * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Streams, SeededInvariants, ::testing::Range(0, 6));

}  // namespace
}  // namespace tb
