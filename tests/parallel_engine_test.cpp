// Threaded-determinism battery for the throughput stack: every
// SolveOptions::solver_threads setting (serial, 2- and 4-worker engine
// pools, the shared pool) must produce bitwise identical throughput
// values, certificates, and SolverStats — across the topology registry,
// through warm GK session chains, and when the runner's per-scenario
// fan-out nests inside its group fan-out. (ExactLP is serial, so the
// thread count never reaches it.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/registry.h"
#include "exp/runner.h"
#include "fleet_reference.h"
#include "mcf/engine.h"
#include "mcf/garg_konemann.h"
#include "pool_test_env.h"
#include "tm/synthetic.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "util/thread_pool.h"

namespace tb {
namespace {

[[maybe_unused]] const int kForcePoolThreads = test_env::force_pool_threads();

mcf::SolveOptions gk_opts(int solver_threads, double eps = 0.1) {
  mcf::SolveOptions o;
  o.kind = mcf::SolverKind::GargKonemann;
  o.epsilon = eps;
  o.solver_threads = solver_threads;
  return o;
}

void expect_same_result(const mcf::ThroughputResult& a,
                        const mcf::ThroughputResult& b,
                        const std::string& what) {
  // Bitwise: == on the doubles is the contract under test.
  EXPECT_EQ(a.throughput, b.throughput) << what;
  EXPECT_EQ(a.upper_bound, b.upper_bound) << what;
  EXPECT_EQ(a.solver, b.solver) << what;
  EXPECT_EQ(a.stats.pivots, b.stats.pivots) << what;
  EXPECT_EQ(a.stats.phases, b.stats.phases) << what;
  EXPECT_EQ(a.stats.dijkstras, b.stats.dijkstras) << what;
  EXPECT_EQ(a.stats.warm_start, b.stats.warm_start) << what;
}

// ---------------------------------------------------------------------------
// Cold and warm GK solves across the registry, 1 vs 2 vs 4 solver threads.

class ThreadedEquivalence : public ::testing::TestWithParam<Family> {};

TEST_P(ThreadedEquivalence, ColdAndWarmGkSolvesAreBitwiseIdentical) {
  const Network net = family_representative(GetParam(), 24, 1);
  const TrafficMatrix a2a = all_to_all(net);
  const TrafficMatrix rm1 = random_matching(net, 1, 5);
  // One engine per thread count, each running the same cold -> warm chain
  // (the warm solve exercises the reuse-trees parallel path).
  struct Chain {
    mcf::ThroughputResult cold;
    mcf::ThroughputResult warm;
  };
  const auto run_chain = [&](int threads) {
    mcf::ThroughputEngine engine(net);
    Chain c;
    c.cold = engine.solve(a2a, gk_opts(threads));
    c.warm = engine.warm_solve(rm1, gk_opts(threads));
    return c;
  };
  const Chain serial = run_chain(1);
  EXPECT_GT(serial.cold.throughput, 0.0);
  for (const int threads : {2, 4}) {
    const Chain threaded = run_chain(threads);
    const std::string what =
        net.name + " @ " + std::to_string(threads) + " threads";
    expect_same_result(serial.cold, threaded.cold, what + " (cold)");
    expect_same_result(serial.warm, threaded.warm, what + " (warm)");
  }
  // The shared pool (solver_threads = 0) is the same algorithm again.
  mcf::SolveOptions shared = gk_opts(0);
  mcf::ThroughputEngine engine(net);
  expect_same_result(serial.cold, engine.solve(a2a, shared),
                     net.name + " (shared pool)");
}

INSTANTIATE_TEST_SUITE_P(Registry, ThreadedEquivalence,
                         ::testing::ValuesIn(all_families()),
                         [](const ::testing::TestParamInfo<Family>& param) {
                           return family_name(param.param);
                         });

// ---------------------------------------------------------------------------
// Above GK's pool cutoff: the registry cases above (24 servers) all fall
// below it and run serially at every thread count, so this is the engine
// case whose block scans really go to the pool.

TEST(ThreadedEquivalence, GkAbovePoolCutoffIsBitwiseIdentical) {
  const Network jf = make_jellyfish(128, 8, 1, 9);
  ASSERT_TRUE(mcf::gk_pool_pays(jf.graph.num_arcs(), /*multi_sink=*/true));
  const TrafficMatrix a2a = all_to_all(jf);
  // Cold A2A, then a warm A2A: the same pairs, so the lengths are seeded.
  const auto run_chain = [&](int threads) {
    mcf::ThroughputEngine engine(jf);
    std::vector<mcf::ThroughputResult> chain;
    chain.push_back(engine.solve(a2a, gk_opts(threads)));
    chain.push_back(engine.warm_solve(a2a, gk_opts(threads)));
    return chain;
  };
  const std::vector<mcf::ThroughputResult> serial = run_chain(1);
  EXPECT_GT(serial[0].throughput, 0.0);
  EXPECT_TRUE(serial[1].stats.warm_start);
  for (const int threads : {2, 4, 0}) {
    const std::vector<mcf::ThroughputResult> pooled = run_chain(threads);
    const std::string what = jf.name + " @ " + std::to_string(threads);
    expect_same_result(serial[0], pooled[0], what + " (cold)");
    expect_same_result(serial[1], pooled[1], what + " (warm)");
  }
}

// The cutoff splits the sizes the repo runs: the benchmark's adversary
// searches (64 servers) and the server workload's cells (16 and 32
// servers) stay below it for either sink structure; the case above is
// pooled.
TEST(GkPoolCutoff, BenchmarkSizesRunSerially) {
  for (const Family f : {Family::FatTree, Family::Hypercube,
                         Family::Jellyfish, Family::Dragonfly}) {
    for (const int servers : {16, 32, 64}) {
      const Network net = family_representative(f, servers, 1);
      for (const bool multi_sink : {false, true}) {
        EXPECT_FALSE(mcf::gk_pool_pays(net.graph.num_arcs(), multi_sink))
            << net.name << " multi_sink=" << multi_sink;
      }
    }
  }
  const Network jf = make_jellyfish(128, 8, 1, 9);
  EXPECT_TRUE(mcf::gk_pool_pays(jf.graph.num_arcs(), true));
  EXPECT_FALSE(mcf::gk_pool_pays(jf.graph.num_arcs(), false));
}

// ---------------------------------------------------------------------------
// GkSolver directly: a null pool (serial) and an explicit pool agree, on
// a graph above the pool cutoff.

TEST(ThreadedEquivalence, GkSerialAndPooledAgree) {
  const Network jf = make_jellyfish(128, 8, 1, 9);
  const TrafficMatrix tm = all_to_all(jf);
  ThreadPool pool(4);
  mcf::GkOptions serial;
  serial.epsilon = 0.05;
  mcf::GkOptions pooled = serial;
  pooled.pool = &pool;
  const mcf::GkResult a = mcf::GkSolver(jf.graph).solve(tm, serial);
  const mcf::GkResult b = mcf::GkSolver(jf.graph).solve(tm, pooled);
  // Identical: the block structure, not the thread count, defines routing.
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.dijkstras, b.dijkstras);
  EXPECT_EQ(a.arc_flow, b.arc_flow);
}

// ---------------------------------------------------------------------------
// The runner's failure group (one shared baseline, forked per-scenario
// sessions) == one-at-a-time engine sequence, bitwise.

TEST(FailureGroup, MatchesOneAtATimeDegradedThroughputBitwise) {
  exp::Sweep sweep;
  sweep.solve = gk_opts(0, 0.05);
  sweep.base_seed = 7;
  sweep.topologies = {exp::instance_spec(make_jellyfish(20, 4, 1, 33))};
  sweep.tms = {exp::random_matching_tm(1)};
  exp::ScenarioPoint edges{"edges(0,1,2)", {}};
  edges.spec.failed_edges = {0, 1, 2};
  exp::ScenarioPoint node{"nodes(1)", {}};
  node.spec.failed_nodes = {1};
  sweep.scenarios = {edges, exp::random_failure_scenarios({0.15})[0],
                     exp::degrade_scenario(0.6), node};

  exp::Runner runner;
  test_ref::expect_rows_match_one_at_a_time(
      sweep, runner.run(sweep, exp::RunOptions{}));
}

TEST(FailureGroup, ForkSessionRefusesActiveScenario) {
  const Network jf = make_jellyfish(12, 3, 1, 2);
  mcf::ThroughputEngine engine(jf);
  mcf::ScenarioSpec spec;
  spec.failed_edges = {0};
  engine.apply_scenario(spec);
  EXPECT_THROW((void)engine.fork_session(), std::logic_error);
  engine.clear_scenario();
  EXPECT_NO_THROW((void)engine.fork_session());
}

// ---------------------------------------------------------------------------
// The full nesting stack: runner groups x per-scenario fan-out x
// intra-solve threading. Pins the parallel_for nested-submit inlining — no deadlock,
// no reordering — by requiring byte-identical CSV for every combination of
// runner parallelism and solver_threads.

TEST(FailureGroup, NestedInRunnerFailuresSweepEmitsIdenticalCsv) {
  exp::Sweep sweep;
  sweep.solve = gk_opts(0, 0.1);
  sweep.base_seed = 3;
  sweep.topologies = {exp::instance_spec(make_jellyfish(16, 4, 1, 9)),
                      exp::instance_spec(make_hypercube(3))};
  sweep.tms = {exp::a2a_tm(), exp::random_matching_tm(1)};
  sweep.scenarios = exp::random_failure_scenarios({0.1, 0.2});
  sweep.scenarios.push_back(exp::degrade_scenario(0.5));

  std::string reference;
  for (const bool parallel : {false, true}) {
    for (const int threads : {1, 4}) {
      sweep.solve.solver_threads = threads;
      exp::Runner runner(parallel);
      const std::string csv = runner.run(sweep, exp::RunOptions{}).to_csv();
      // The configuration echo column is the only allowed difference.
      exp::ResultSet rs = exp::ResultSet::from_csv(csv);
      for (const exp::CellResult& r : rs.rows()) {
        EXPECT_EQ(r.solver_threads, threads);
      }
      // Normalize the echo column before the byte comparison.
      std::string normalized;
      for (exp::CellResult r : rs.rows()) {
        r.solver_threads = 0;
        exp::ResultSet one;
        one.add(std::move(r));
        const std::string cell_csv = one.to_csv();
        normalized += cell_csv.substr(cell_csv.find('\n') + 1);
      }
      if (reference.empty()) {
        reference = normalized;
      } else {
        EXPECT_EQ(normalized, reference)
            << "parallel=" << parallel << " threads=" << threads;
      }
    }
  }
  EXPECT_FALSE(reference.empty());
}

}  // namespace
}  // namespace tb
