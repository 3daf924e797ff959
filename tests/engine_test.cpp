#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"
#include "fleet_reference.h"
#include "mcf/engine.h"
#include "mcf/throughput.h"
#include "pool_test_env.h"
#include "tm/synthetic.h"
#include "topo/fattree.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"

namespace tb {
namespace {

[[maybe_unused]] const int kForcePoolThreads = test_env::force_pool_threads();

mcf::SolveOptions gk_opts(double eps = 0.05) {
  mcf::SolveOptions o;
  o.kind = mcf::SolverKind::GargKonemann;
  o.epsilon = eps;
  return o;
}

TEST(Engine, ReusedColdSolveMatchesFreshEngineBitwise) {
  // A cold solve depends only on (topology, capacities, TM, options): an
  // engine that has warm-solved another TM and applied and cleared a
  // scenario must cold-solve bitwise like a fresh engine, on both solver
  // paths. This is what lets a caller hold one engine per topology.
  const auto check = [](const Network& net, const TrafficMatrix& tm,
                        const mcf::SolveOptions& opts, const char* solver) {
    mcf::ThroughputEngine reused(net);
    (void)reused.solve(tm, opts);
    (void)reused.warm_solve(random_matching(net, 1, 3), opts);
    mcf::ScenarioSpec spec;
    spec.random_edge_fraction = 0.1;
    spec.seed = 5;
    reused.apply_scenario(spec);
    (void)reused.warm_solve(tm, opts);
    reused.clear_scenario();
    const auto again = reused.solve(tm, opts);
    const auto fresh = mcf::ThroughputEngine(net).solve(tm, opts);
    EXPECT_EQ(fresh.solver, solver);
    EXPECT_EQ(again.solver, fresh.solver) << solver;
    EXPECT_EQ(again.throughput, fresh.throughput) << solver;
    EXPECT_EQ(again.upper_bound, fresh.upper_bound) << solver;
    EXPECT_EQ(again.stats.pivots, fresh.stats.pivots) << solver;
    EXPECT_EQ(again.stats.phases, fresh.stats.phases) << solver;
    EXPECT_EQ(again.stats.dijkstras, fresh.stats.dijkstras) << solver;
    EXPECT_FALSE(again.stats.warm_start) << solver;
  };
  const Network jf = make_jellyfish(24, 5, 1, 21);
  check(jf, longest_matching(jf), gk_opts(), "garg-konemann");
  const Network hc = make_hypercube(3);
  check(hc, all_to_all(hc), mcf::SolveOptions{}, "exact-lp");
}

TEST(Engine, WarmSolveWithinCertifiedGapOfCold) {
  // The engine's contract: a warm solve certifies the same instance, so
  // its certified interval must overlap the cold one —
  // feasible values never exceed the other run's certified upper bound.
  const Network jf = make_jellyfish(24, 5, 1, 7);
  const double eps = 0.05;
  mcf::ThroughputEngine engine(jf);
  const TrafficMatrix tms[] = {all_to_all(jf), random_matching(jf, 1, 3),
                               longest_matching(jf)};
  mcf::ThroughputResult prev = engine.solve(tms[0], gk_opts(eps));
  for (const TrafficMatrix& tm : {tms[1], tms[2]}) {
    const auto warm = engine.warm_solve(tm, gk_opts(eps));
    const auto cold = mcf::ThroughputEngine(jf).solve(tm, gk_opts(eps));
    EXPECT_TRUE(warm.stats.warm_start);
    EXPECT_GT(warm.throughput, 0.0);
    // Certified feasibility/upper-bound crosschecks.
    EXPECT_LE(warm.throughput, warm.upper_bound * (1.0 + 1e-9));
    EXPECT_LE(warm.throughput, cold.upper_bound * (1.0 + 1e-9));
    EXPECT_LE(cold.throughput, warm.upper_bound * (1.0 + 1e-9));
    // And the values agree within the combined certified gaps.
    EXPECT_NEAR(warm.throughput / cold.throughput, 1.0, 2.5 * eps);
    prev = warm;
  }
}

TEST(Engine, WarmSolveIsDeterministic) {
  const Network jf = make_jellyfish(20, 4, 1, 5);
  const auto chain = [&jf] {
    mcf::ThroughputEngine engine(jf);
    (void)engine.solve(all_to_all(jf), gk_opts());
    return engine.warm_solve(longest_matching(jf), gk_opts());
  };
  const auto a = chain();
  const auto b = chain();
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.stats.phases, b.stats.phases);
  EXPECT_EQ(a.stats.dijkstras, b.stats.dijkstras);
}

TEST(Engine, UnseededWarmSolveEqualsColdBitwise) {
  // Warm means length seeding only, and seeding needs the previous solve's
  // commodity set: after A2A, a warm LM solve has nothing to seed from, so
  // it must be bitwise a fresh engine's cold LM solve. It still reports
  // warm_start, which records that warm was requested.
  const Network jf = make_jellyfish(24, 5, 1, 21);
  mcf::ThroughputEngine engine(jf);
  (void)engine.solve(all_to_all(jf), gk_opts());
  const auto warm = engine.warm_solve(longest_matching(jf), gk_opts());
  const auto cold =
      mcf::ThroughputEngine(jf).solve(longest_matching(jf), gk_opts());
  EXPECT_EQ(warm.throughput, cold.throughput);
  EXPECT_EQ(warm.upper_bound, cold.upper_bound);
  EXPECT_EQ(warm.stats.phases, cold.stats.phases);
  EXPECT_EQ(warm.stats.dijkstras, cold.stats.dijkstras);
  EXPECT_TRUE(warm.stats.warm_start);
  EXPECT_FALSE(cold.stats.warm_start);
}

TEST(Engine, ExactLpWarmSolveEqualsColdBitwise) {
  // The engine keeps no LP state: every ExactLP solve starts from the
  // spanning-tree basis, so a warm solve, after another TM or after a
  // scenario, is bitwise a fresh engine's cold solve under the same
  // capacities. warm_start still records that warm was requested.
  const Network hc = make_hypercube(3);
  const TrafficMatrix tm = all_to_all(hc);
  const auto expect_equal = [](const mcf::ThroughputResult& warm,
                               const mcf::ThroughputResult& cold) {
    ASSERT_EQ(cold.solver, "exact-lp");
    EXPECT_EQ(warm.solver, cold.solver);
    EXPECT_EQ(warm.throughput, cold.throughput);
    EXPECT_EQ(warm.stats.pivots, cold.stats.pivots);
    EXPECT_TRUE(warm.stats.warm_start);
    EXPECT_FALSE(cold.stats.warm_start);
  };
  {
    SCOPED_TRACE("after another TM");
    mcf::ThroughputEngine engine(hc);
    (void)engine.solve(random_matching(hc, 1, 3));
    expect_equal(engine.warm_solve(tm), mcf::ThroughputEngine(hc).solve(tm));
  }
  {
    SCOPED_TRACE("after apply_scenario");
    mcf::ScenarioSpec spec;
    spec.random_edge_fraction = 0.1;
    spec.seed = 5;
    mcf::ThroughputEngine engine(hc);
    (void)engine.solve(tm);
    engine.apply_scenario(spec);
    ASSERT_GT(engine.failed_edge_count(), 0);
    mcf::ThroughputEngine fresh(hc);
    fresh.apply_scenario(spec);
    expect_equal(engine.warm_solve(tm), fresh.solve(tm));
  }
}

TEST(Engine, ScenarioFailedEdgesReduceThroughputAndRevertExactly) {
  const Network jf = make_jellyfish(20, 4, 1, 33);
  const TrafficMatrix tm = random_matching(jf, 1, 5);
  mcf::ThroughputEngine engine(jf);
  const auto base = engine.solve(tm, gk_opts(0.03));

  mcf::ScenarioSpec spec;
  spec.failed_edges = {0, 1, 2};
  engine.apply_scenario(spec);
  EXPECT_TRUE(engine.scenario_active());
  EXPECT_EQ(engine.failed_edge_count(), 3);
  const auto degraded = engine.solve(tm, gk_opts(0.03));
  // Removing capacity can only hurt (up to the certified gap).
  EXPECT_LE(degraded.throughput, base.throughput * (1.0 + 0.07));

  // O(affected-arcs) repair: a cold solve after clearing must be bitwise
  // identical to the original cold solve — no scenario state may linger.
  engine.clear_scenario();
  EXPECT_FALSE(engine.scenario_active());
  EXPECT_EQ(engine.failed_edge_count(), 0);
  const auto restored = engine.solve(tm, gk_opts(0.03));
  EXPECT_EQ(restored.throughput, base.throughput);
  EXPECT_EQ(restored.upper_bound, base.upper_bound);
  EXPECT_EQ(restored.stats.phases, base.stats.phases);
}

TEST(Engine, ScenarioDisconnectionYieldsZero) {
  // A path network cut in the middle: demands across the cut make the
  // concurrent-flow optimum exactly 0, reported as "disconnected".
  Network net;
  net.name = "path4";
  Graph g(4);
  g.add_edge(0, 1);
  const int mid = g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.finalize();
  net.graph = std::move(g);
  attach_servers_uniform(net, 1);
  TrafficMatrix tm;
  tm.name = "cross";
  tm.demands = {{0, 3, 1.0}, {3, 0, 1.0}};

  mcf::ThroughputEngine engine(net);
  EXPECT_GT(engine.solve(tm).throughput, 0.0);
  mcf::ScenarioSpec spec;
  spec.failed_edges = {mid};
  engine.apply_scenario(spec);
  const auto cut = engine.solve(tm);
  EXPECT_EQ(cut.throughput, 0.0);
  EXPECT_EQ(cut.upper_bound, 0.0);
  EXPECT_EQ(cut.solver, "disconnected");
}

TEST(Engine, NodeFailureDropsItsDemands) {
  const Network hc = make_hypercube(3);
  const TrafficMatrix tm = all_to_all(hc);
  mcf::ThroughputEngine engine(hc);

  mcf::ScenarioSpec spec;
  spec.failed_nodes = {0};
  engine.apply_scenario(spec);
  // Demands touching node 0 are dropped; the rest still flow.
  EXPECT_EQ(engine.failed_edge_count(), 3);  // hypercube degree 3
  const auto dropped = engine.solve(tm);
  EXPECT_GT(dropped.throughput, 0.0);
  EXPECT_NE(dropped.solver, "disconnected");
}

TEST(Engine, RandomFailureSamplingIsSeededAndValidated) {
  const Network jf = make_jellyfish(20, 4, 1, 9);
  const int num_edges = jf.graph.num_edges();
  mcf::ThroughputEngine engine(jf);
  mcf::ScenarioSpec spec;
  spec.random_edge_fraction = 0.25;
  spec.seed = 4242;
  engine.apply_scenario(spec);
  const int failed_a = engine.failed_edge_count();
  EXPECT_EQ(failed_a, static_cast<int>(std::llround(0.25 * num_edges)));
  engine.apply_scenario(spec);  // reapplying replaces, same seed same draw
  EXPECT_EQ(engine.failed_edge_count(), failed_a);

  mcf::ScenarioSpec bad;
  bad.capacity_factor = 0.0;
  EXPECT_THROW(engine.apply_scenario(bad), std::invalid_argument);
  bad = {};
  bad.random_edge_fraction = 1.5;
  EXPECT_THROW(engine.apply_scenario(bad), std::invalid_argument);
  bad = {};
  bad.failed_edges = {num_edges};
  EXPECT_THROW(engine.apply_scenario(bad), std::out_of_range);
  bad = {};
  bad.failed_nodes = {-1};
  EXPECT_THROW(engine.apply_scenario(bad), std::out_of_range);
}

TEST(Engine, RejectedScenarioLeavesEngineUnchanged) {
  // apply_scenario validates the whole spec before touching the engine: a
  // valid group list next to an out-of-range node id throws and leaves no
  // partial state (no group count, no failed-node mask, no capacities).
  const Network ft = make_fat_tree(4);
  ASSERT_EQ(ft.total_servers(), 16);
  ASSERT_FALSE(ft.risk_groups.empty());
  const TrafficMatrix tm = random_matching(ft, 1, 5);
  const mcf::ThroughputResult fresh = mcf::ThroughputEngine(ft).solve(tm);
  const std::vector<double> caps = mcf::ThroughputEngine(ft).arc_capacities();

  mcf::ThroughputEngine engine(ft);
  mcf::ScenarioSpec bad;
  bad.failed_edges = {0};
  bad.failed_groups = {0};
  bad.failed_nodes = {0, ft.graph.num_nodes()};
  EXPECT_THROW(engine.apply_scenario(bad), std::out_of_range);
  EXPECT_FALSE(engine.scenario_active());
  EXPECT_EQ(engine.failed_edge_count(), 0);
  EXPECT_EQ(engine.failed_group_count(), 0);
  EXPECT_EQ(engine.arc_capacities(), caps);
  const mcf::ThroughputResult after = engine.solve(tm);
  EXPECT_EQ(after.throughput, fresh.throughput);
  EXPECT_EQ(after.upper_bound, fresh.upper_bound);
  EXPECT_EQ(after.solver, fresh.solver);
  EXPECT_EQ(after.stats.pivots, fresh.stats.pivots);
  EXPECT_EQ(after.stats.phases, fresh.stats.phases);
  EXPECT_EQ(after.stats.dijkstras, fresh.stats.dijkstras);

  // A rejected spec also leaves an active scenario in place, untouched.
  mcf::ScenarioSpec good;
  good.failed_groups = {0};
  engine.apply_scenario(good);
  const int failed_edges = engine.failed_edge_count();
  const std::vector<double> degraded = engine.arc_capacities();
  bad.failed_nodes = {-1};
  EXPECT_THROW(engine.apply_scenario(bad), std::out_of_range);
  EXPECT_TRUE(engine.scenario_active());
  EXPECT_EQ(engine.failed_group_count(), 1);
  EXPECT_EQ(engine.failed_edge_count(), failed_edges);
  EXPECT_EQ(engine.arc_capacities(), degraded);

  // Non-finite fractions and surge factors are rejected the same way.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int field = 0; field < 3; ++field) {
    for (const double v : {nan, inf}) {
      mcf::ScenarioSpec non_finite;
      if (field == 0) non_finite.random_edge_fraction = v;
      if (field == 1) non_finite.random_group_fraction = v;
      if (field == 2) non_finite.tm_scale = v;
      EXPECT_THROW(engine.apply_scenario(non_finite), std::invalid_argument)
          << "field " << field << " value " << v;
      EXPECT_TRUE(engine.scenario_active());
      EXPECT_EQ(engine.failed_group_count(), 1);
      EXPECT_EQ(engine.failed_edge_count(), failed_edges);
      EXPECT_EQ(engine.arc_capacities(), degraded);
    }
  }
}

TEST(Engine, CapacityDegradationScalesLpThroughputExactly) {
  // The LP optimum is linear in uniform capacity scaling; the engine's
  // degraded solve must reproduce that exactly on the ExactLP path.
  const Network hc = make_hypercube(3);
  const TrafficMatrix tm = all_to_all(hc);
  mcf::ThroughputEngine engine(hc);
  const auto base = engine.solve(tm);
  ASSERT_EQ(base.solver, "exact-lp");
  mcf::ScenarioSpec spec;
  spec.capacity_factor = 0.5;
  engine.apply_scenario(spec);
  EXPECT_EQ(engine.failed_edge_count(), 0);
  const auto half = engine.solve(tm);
  EXPECT_NEAR(half.throughput, base.throughput / 2.0, 1e-9);
}

TEST(Engine, FleetCellReportsDropAndStats) {
  // A failure cell of the runner's failures mode: the degraded warm solve
  // against the group's shared cold baseline.
  const Network jf = make_jellyfish(20, 4, 1, 11);
  exp::Sweep sweep;
  sweep.topologies = {exp::instance_spec(jf)};
  sweep.tms = {exp::a2a_tm()};
  sweep.solve = gk_opts(0.05);
  sweep.base_seed = 99;
  // fail(f=1): every link fails, so no demand can be served.
  sweep.scenarios = exp::random_failure_scenarios({0.1, 1.0});
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  test_ref::expect_rows_match_one_at_a_time(sweep, rs);
  ASSERT_EQ(rs.size(), 2u);
  const double baseline =
      mcf::ThroughputEngine(jf).solve(all_to_all(jf), sweep.solve).throughput;

  const exp::CellResult& res = rs.rows()[0];
  EXPECT_GT(baseline, 0.0);
  EXPECT_GT(res.failed_links, 0);
  EXPECT_LE(res.throughput, baseline * (1.0 + 0.11));
  EXPECT_NEAR(res.throughput_drop, 1.0 - res.throughput / baseline, 1e-12);
  EXPECT_EQ(res.warm, 1);  // seeds from the baseline
  EXPECT_GT(res.phases, 0);

  const exp::CellResult& dead = rs.rows()[1];
  EXPECT_EQ(dead.throughput, 0.0);
  EXPECT_EQ(test_ref::one_at_a_time(jf, all_to_all(jf),
                                    test_ref::runner_spec(sweep, 1),
                                    sweep.solve)
                .result.solver,
            "disconnected");
  EXPECT_EQ(dead.phases, 0);  // no solver ran
  EXPECT_NEAR(dead.throughput_drop, 1.0, 1e-12);
}


// ---------------------------------------------------------------------------
// Degenerate inputs: one defined answer per row, whichever kernel the
// engine dispatches to (Auto, ExactLP and GK alike).

class DegenerateInput : public ::testing::TestWithParam<mcf::SolverKind> {
 protected:
  mcf::SolveOptions opts(double eps = 0.05) const {
    mcf::SolveOptions o;
    o.kind = GetParam();
    o.epsilon = eps;
    return o;
  }
};

/// `solve` must throw std::invalid_argument whose message is `what`.
template <class F>
void expect_rejected(F&& solve, const std::string& what) {
  try {
    (void)solve();
    ADD_FAILURE() << "accepted; expected \"" << what << '"';
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
}

const char* const kEmptyTm = "ThroughputEngine: empty traffic matrix";

TEST_P(DegenerateInput, SingleSwitchHasNoTrafficToRoute) {
  // Every server pair shares the one switch, so the switch-level TM is
  // empty: the same answer as an empty TM.
  Network net;
  net.name = "single";
  Graph g(1);
  g.finalize();
  net.graph = std::move(g);
  attach_servers_uniform(net, 4);
  const TrafficMatrix tm = all_to_all(net);
  EXPECT_TRUE(tm.demands.empty());
  mcf::ThroughputEngine engine(net);
  expect_rejected([&] { return engine.solve(tm, opts()); }, kEmptyTm);
}

TEST_P(DegenerateInput, EmptyTmIsRejectedOnce) {
  const Network hc = make_hypercube(3);
  mcf::ThroughputEngine engine(hc);
  const TrafficMatrix empty;
  expect_rejected([&] { return engine.solve(empty, opts()); }, kEmptyTm);
  expect_rejected([&] { return engine.warm_solve(empty, opts()); }, kEmptyTm);
  mcf::ScenarioSpec degrade;
  degrade.capacity_factor = 0.5;
  engine.apply_scenario(degrade);
  expect_rejected([&] { return engine.solve(empty, opts()); }, kEmptyTm);
  // A scenario that drops every demand of a non-empty TM keeps its
  // documented answer: nothing survives, so 0 is the exact optimum.
  TrafficMatrix one;
  one.demands = {{0, 1, 1.0}};
  mcf::ScenarioSpec fail_node;
  fail_node.failed_nodes = {0};
  engine.apply_scenario(fail_node);
  const mcf::ThroughputResult r = engine.solve(one, opts());
  EXPECT_EQ(r.solver, "disconnected");
  EXPECT_EQ(r.throughput, 0.0);
}

TEST_P(DegenerateInput, DuplicateCommoditiesActAsTheirSum) {
  // Every LM demand listed twice at half its amount is the same TM.
  const Network jf = make_jellyfish(16, 4, 1, 4);
  const TrafficMatrix merged = longest_matching(jf);
  TrafficMatrix dup;
  for (int copy = 0; copy < 2; ++copy) {
    for (Demand d : merged.demands) {
      d.amount /= 2.0;
      dup.demands.push_back(d);
    }
  }
  mcf::SolveOptions exact = opts();
  exact.kind = mcf::SolverKind::ExactLP;
  const mcf::ThroughputResult ref =
      mcf::ThroughputEngine(jf).solve(merged, exact);
  const mcf::ThroughputResult r = mcf::ThroughputEngine(jf).solve(dup, opts());
  if (r.solver == "exact-lp") {
    // The LP aggregates demands by (source, sink): the same LP, bitwise.
    EXPECT_EQ(r.throughput, ref.throughput);
    EXPECT_EQ(r.stats.pivots, ref.stats.pivots);
  } else {
    // GK routes the copies as separate commodities, so its bits differ,
    // but its certificate still brackets the exact optimum.
    EXPECT_EQ(r.solver, "garg-konemann");
    EXPECT_LE(r.throughput, ref.throughput * (1.0 + 1e-9));
    EXPECT_GE(r.upper_bound, ref.throughput * (1.0 - 1e-9));
  }
}

TEST_P(DegenerateInput, AllLinksFailedIsDisconnected) {
  const Network hc = make_hypercube(3);
  mcf::ThroughputEngine engine(hc);
  mcf::ScenarioSpec spec;
  spec.random_edge_fraction = 1.0;
  engine.apply_scenario(spec);
  EXPECT_EQ(engine.failed_edge_count(), hc.graph.num_edges());
  const mcf::ThroughputResult r = engine.solve(all_to_all(hc), opts());
  EXPECT_EQ(r.solver, "disconnected");
  EXPECT_EQ(r.throughput, 0.0);
  EXPECT_EQ(r.upper_bound, 0.0);
}

TEST_P(DegenerateInput, EpsilonOutsideTheHonouredRangeIsRejected) {
  // One demand over one link: every kernel is exact at once, so the range
  // ends cost nothing to solve.
  Network net;
  net.name = "pair";
  Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  net.graph = std::move(g);
  attach_servers_uniform(net, 1);
  TrafficMatrix tm;
  tm.demands = {{0, 1, 1.0}};
  mcf::ThroughputEngine engine(net);
  for (const double eps : {mcf::kMinEpsilon, mcf::kMaxEpsilon}) {
    const mcf::ThroughputResult r = engine.solve(tm, opts(eps));
    EXPECT_NEAR(r.throughput, 1.0, eps) << eps;
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double eps :
       {std::nextafter(mcf::kMinEpsilon, 0.0),
        std::nextafter(mcf::kMaxEpsilon, 1.0), 0.5, 0.0, -0.1, inf,
        std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(eps);
    expect_rejected([&] { return engine.solve(tm, opts(eps)); },
                    "ThroughputEngine: epsilon must be in [0.0001, 0.3]");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, DegenerateInput,
    ::testing::Values(mcf::SolverKind::Auto, mcf::SolverKind::ExactLP,
                      mcf::SolverKind::GargKonemann),
    [](const ::testing::TestParamInfo<mcf::SolverKind>& param) {
      switch (param.param) {
        case mcf::SolverKind::Auto: return std::string("Auto");
        case mcf::SolverKind::ExactLP: return std::string("ExactLP");
        case mcf::SolverKind::GargKonemann: return std::string("GK");
      }
      return std::string("?");
    });

}  // namespace
}  // namespace tb
