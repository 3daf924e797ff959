// Structured failure scenarios: shared-risk link groups, traffic surges,
// incremental-expansion (growth) stages, and the adversarial worst-case TM
// search. The battery pins the four contracts the scenario layer promises:
//   * every registry family exports validated structural risk groups;
//   * scenarios revert bitwise — groups and surge included;
//   * failure-sweep results are thread-, group- and shard-invariant;
//   * all sampling is seed-deterministic against an independently computed
//     expectation stream (kGroupSampleStream).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "exp/runner.h"
#include "exp/shard.h"
#include "exp/sweep.h"
#include "fleet_reference.h"
#include "mcf/adversary.h"
#include "mcf/engine.h"
#include "pool_test_env.h"
#include "store/result_store.h"
#include "tm/synthetic.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "topo/torus.h"
#include "util/rng.h"

namespace tb {
namespace {

[[maybe_unused]] const int kForcePoolThreads = test_env::force_pool_threads();

mcf::SolveOptions lp_opts() {
  mcf::SolveOptions o;
  o.kind = mcf::SolverKind::ExactLP;
  return o;
}

// --- risk-group derivation ------------------------------------------------

TEST(RiskGroups, EveryRegistryFamilyExportsValidatedGroups) {
  // The correlated-failure scenarios assume groups exist on every
  // instance the registry hands out — bespoke structural groups where the
  // builder derives them, the switch(<v>) fallback everywhere else.
  for (const Family f : all_families()) {
    const Network net = family_representative(f, 16, /*seed=*/1);
    EXPECT_FALSE(net.risk_groups.empty()) << family_name(f);
    EXPECT_NO_THROW(net.validate()) << family_name(f);
    for (const RiskGroup& g : net.risk_groups) {
      EXPECT_FALSE(g.label.empty()) << family_name(f);
      EXPECT_FALSE(g.edges.empty()) << family_name(f) << " " << g.label;
    }
  }
}

TEST(RiskGroups, FatTreeAndHypercubeStructuralShapes) {
  // FatTree(k): one pod group per pod (its intra-pod mesh plus its
  // agg->core uplinks), then one uplink-tray group per edge switch.
  const Network ft = make_fat_tree(4);
  const int pods = 4, half = 2, num_edge = pods * half;
  ASSERT_EQ(ft.risk_groups.size(), static_cast<std::size_t>(pods + num_edge));
  for (int p = 0; p < pods; ++p) {
    EXPECT_EQ(ft.risk_groups[p].label, "pod(" + std::to_string(p) + ")");
    // half*half intra-pod links + half*half uplinks.
    EXPECT_EQ(ft.risk_groups[p].edges.size(), 8u);
  }
  for (int e = 0; e < num_edge; ++e) {
    const RiskGroup& g = ft.risk_groups[static_cast<std::size_t>(pods + e)];
    EXPECT_EQ(g.label, "edge(" + std::to_string(e) + ")");
    EXPECT_EQ(g.edges.size(), static_cast<std::size_t>(half));
  }

  // Hypercube(d): one dimension-plane group per flipped bit, each with
  // 2^(d-1) links, tiling the edge set exactly.
  const Network hc = make_hypercube(4);
  ASSERT_EQ(hc.risk_groups.size(), 4u);
  std::set<int> covered;
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(hc.risk_groups[b].label, "dim(" + std::to_string(b) + ")");
    EXPECT_EQ(hc.risk_groups[b].edges.size(), 8u);
    covered.insert(hc.risk_groups[b].edges.begin(),
                   hc.risk_groups[b].edges.end());
  }
  EXPECT_EQ(static_cast<int>(covered.size()), hc.graph.num_edges());
}

TEST(RiskGroups, TorusAndDragonflyStructuralShapes) {
  // Torus: one plane group per dimension, tiling the edges.
  const Network torus = make_torus({4, 4}, 1);
  ASSERT_EQ(torus.risk_groups.size(), 2u);
  std::size_t torus_edges = 0;
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(torus.risk_groups[d].label, "dim(" + std::to_string(d) + ")");
    torus_edges += torus.risk_groups[d].edges.size();
  }
  EXPECT_EQ(torus_edges, static_cast<std::size_t>(torus.graph.num_edges()));

  // Dragonfly: one global-cabling group per router group; every global
  // link appears in both endpoint groups, so the membership total is twice
  // the global-link count (groups may overlap by contract).
  const int p = 2, a = 4, h = 2, g = a * h + 1;
  const Network df = make_dragonfly(p, a, h);
  ASSERT_EQ(df.risk_groups.size(), static_cast<std::size_t>(g));
  const int intra = g * a * (a - 1) / 2;
  std::size_t memberships = 0;
  for (int grp = 0; grp < g; ++grp) {
    EXPECT_EQ(df.risk_groups[grp].label, "global(" + std::to_string(grp) + ")");
    memberships += df.risk_groups[grp].edges.size();
  }
  EXPECT_EQ(memberships,
            2u * static_cast<std::size_t>(df.graph.num_edges() - intra));
}

TEST(RiskGroups, JellyfishCableBundlesAreSeededPartition) {
  const Network jf = make_jellyfish(16, 4, 1, /*seed=*/9);
  const int m = jf.graph.num_edges();
  ASSERT_EQ(jf.risk_groups.size(), static_cast<std::size_t>((m + 3) / 4));
  std::set<int> covered;
  for (std::size_t b = 0; b < jf.risk_groups.size(); ++b) {
    EXPECT_EQ(jf.risk_groups[b].label, "bundle(" + std::to_string(b) + ")");
    EXPECT_LE(jf.risk_groups[b].edges.size(), 4u);
    for (const int e : jf.risk_groups[b].edges) {
      EXPECT_TRUE(covered.insert(e).second) << "bundles must be disjoint";
    }
  }
  EXPECT_EQ(static_cast<int>(covered.size()), m);

  // The bundle partition is a pure function of the construction seed.
  const Network again = make_jellyfish(16, 4, 1, /*seed=*/9);
  ASSERT_EQ(again.risk_groups.size(), jf.risk_groups.size());
  for (std::size_t b = 0; b < jf.risk_groups.size(); ++b) {
    EXPECT_EQ(again.risk_groups[b].edges, jf.risk_groups[b].edges);
  }
}

TEST(RiskGroups, EnsureRiskGroupsFallbackAndNoOp) {
  Network net;
  net.name = "path3";
  net.graph = Graph(3);
  net.graph.add_edge(0, 1);
  net.graph.add_edge(1, 2);
  net.graph.finalize();
  net.servers = {1, 1, 1};
  ensure_risk_groups(net);
  ASSERT_EQ(net.risk_groups.size(), 3u);
  EXPECT_EQ(net.risk_groups[0].label, "switch(0)");
  EXPECT_EQ(net.risk_groups[1].edges.size(), 2u);  // middle node: both links
  ensure_risk_groups(net);  // idempotent
  EXPECT_EQ(net.risk_groups.size(), 3u);

  // Bespoke builder groups always win: the fallback never runs over them.
  Network ft = make_fat_tree(4);
  const std::size_t bespoke = ft.risk_groups.size();
  ensure_risk_groups(ft);
  EXPECT_EQ(ft.risk_groups.size(), bespoke);
}

// --- scenario engine ------------------------------------------------------

TEST(ScenarioEngine, CorrelatedGroupSamplingMatchesIndependentStream) {
  mcf::ScenarioSpec spec;
  spec.failed_groups = {2};
  spec.random_group_fraction = 0.5;
  spec.seed = 77;
  const std::vector<int> got = mcf::sampled_risk_groups(spec, 4);

  // The documented stream, computed without the engine: the explicit set
  // plus Rng(mix_seed(seed, kGroupSampleStream)) sampling round(f*G)
  // groups, sorted and deduplicated.
  std::vector<int> expected = {2};
  Rng rng(mix_seed(spec.seed, mcf::kGroupSampleStream));
  for (const int gi : rng.sample_without_replacement(4, 2)) {
    expected.push_back(gi);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(got, expected);

  mcf::ScenarioSpec bad_frac;
  bad_frac.random_group_fraction = 1.5;
  EXPECT_THROW(mcf::sampled_risk_groups(bad_frac, 4), std::invalid_argument);
  mcf::ScenarioSpec no_groups;
  no_groups.random_group_fraction = 0.5;
  EXPECT_THROW(mcf::sampled_risk_groups(no_groups, 0), std::invalid_argument);
  mcf::ScenarioSpec bad_index;
  bad_index.failed_groups = {4};
  EXPECT_THROW(mcf::sampled_risk_groups(bad_index, 4), std::out_of_range);
}

TEST(ScenarioEngine, GroupAndSurgeRevertBitwiseAcrossRegistry) {
  // The registry-wide revert contract with both structured perturbation
  // kinds active at once: after clear_scenario() the working capacities and a
  // cold re-solve must be bitwise the pre-scenario ones on every family.
  for (const Family f : all_families()) {
    const Network net = family_representative(f, 16, /*seed=*/1);
    const TrafficMatrix tm = random_matching(net, 1, /*seed=*/5);
    mcf::ThroughputEngine engine(net);
    const auto base = engine.solve(tm);
    const std::vector<double> caps = engine.arc_capacities();

    mcf::ScenarioSpec spec;
    spec.random_group_fraction = 0.5;
    spec.tm_scale = 1.5;
    spec.seed = 123;
    engine.apply_scenario(spec);
    EXPECT_GT(engine.failed_group_count(), 0) << family_name(f);
    const auto degraded = engine.solve(tm);
    EXPECT_GE(degraded.throughput, 0.0) << family_name(f);

    engine.clear_scenario();
    EXPECT_EQ(engine.failed_group_count(), 0) << family_name(f);
    EXPECT_EQ(engine.arc_capacities(), caps) << family_name(f);
    const auto restored = engine.solve(tm);
    EXPECT_EQ(restored.throughput, base.throughput) << family_name(f);
    EXPECT_EQ(restored.upper_bound, base.upper_bound) << family_name(f);
    EXPECT_EQ(restored.stats.phases, base.stats.phases) << family_name(f);
    EXPECT_EQ(restored.stats.pivots, base.stats.pivots) << family_name(f);
  }
}

TEST(ScenarioEngine, SurgeScalesExactLpInversely) {
  // Surge scaling touches only the input TM, so the exact LP has a closed
  // form: doubling every demand exactly halves throughput.
  const Network hc = make_hypercube(3);
  const TrafficMatrix tm = all_to_all(hc);
  mcf::ThroughputEngine engine(hc);
  const auto base = engine.solve(tm, lp_opts());
  ASSERT_GT(base.throughput, 0.0);

  mcf::ScenarioSpec surge;
  surge.tm_scale = 2.0;
  engine.apply_scenario(surge);
  EXPECT_EQ(engine.failed_edge_count(), 0);  // capacities untouched
  const auto surged = engine.solve(tm, lp_opts());
  EXPECT_NEAR(surged.throughput, base.throughput / 2.0,
              1e-9 * base.throughput);

  engine.clear_scenario();
  const auto restored = engine.solve(tm, lp_opts());
  EXPECT_EQ(restored.throughput, base.throughput);
}

TEST(ScenarioEngine, SupersetOfFailedGroupsIsMonotone) {
  // Failing more shared-risk groups can only remove capacity, so exact LP
  // throughput is non-increasing along a group-superset chain
  // (disconnection reports 0, which keeps the chain monotone).
  const Network jf = make_jellyfish(16, 4, 1, /*seed=*/3);
  ASSERT_GE(jf.risk_groups.size(), 3u);
  const TrafficMatrix tm = random_matching(jf, 1, /*seed=*/5);
  double prev = std::numeric_limits<double>::infinity();
  std::vector<int> failed;
  for (int gi = 0; gi < 3; ++gi) {
    failed.push_back(gi);
    mcf::ScenarioSpec spec;
    spec.failed_groups = failed;
    const test_ref::RefCell r =
        test_ref::one_at_a_time(jf, tm, spec, lp_opts());
    EXPECT_EQ(r.failed_groups, gi + 1);
    EXPECT_LE(r.result.throughput, prev + 1e-9);
    prev = r.result.throughput;
  }
}

// --- scenario fleet: the runner's failure groups ------------------------

/// One (topology, TM) failure group over the structured scenario kinds:
/// sampled groups, surge, node failure, and a groups + surge compound.
exp::Sweep structured_sweep() {
  exp::Sweep s;
  s.topologies = {exp::instance_spec(make_jellyfish(16, 4, 1, /*seed=*/3))};
  s.tms = {exp::random_matching_tm(2)};
  s.solve = lp_opts();
  s.base_seed = 7;
  exp::ScenarioPoint node{"nodes(1)", {}};
  node.spec.failed_nodes = {1};
  exp::ScenarioPoint compound{"groups(f=0.25)+surge(x=1.25)", {}};
  compound.spec.random_group_fraction = 0.25;
  compound.spec.tm_scale = 1.25;
  s.scenarios = {exp::correlated_group_scenarios({0.25})[0],
                 exp::surge_scenario(1.5), node, compound};
  return s;
}

TEST(FailureGroup, BatchMatchesSerialBitwiseForStructuredScenarios) {
  // The group contract for the structured scenario kinds: one shared
  // baseline + forked warm solves must be bitwise the one-at-a-time
  // engine answers, for groups, surge, node failure and compound.
  const exp::Sweep sweep = structured_sweep();
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  test_ref::expect_rows_match_one_at_a_time(sweep, rs);
  ASSERT_EQ(rs.size(), 4u);
  // Each cell records the resolved group count of its own sampled spec.
  const int num_groups =
      static_cast<int>(sweep.topologies[0].build()->risk_groups.size());
  EXPECT_EQ(rs.rows()[0].risk_group,
            static_cast<int>(mcf::sampled_risk_groups(
                                 test_ref::runner_spec(sweep, 0), num_groups)
                                 .size()));
  EXPECT_EQ(rs.rows()[1].risk_group, 0);
  EXPECT_EQ(rs.rows()[1].failed_links, 0);  // surge fails nothing
}

TEST(FailureGroup, ParallelAndInlineFanoutAgree) {
  // A single (topology, TM) group with serial solves: the per-scenario
  // fan-out is the only parallel level, and it must not move a byte.
  exp::Sweep sweep = structured_sweep();
  sweep.solve.solver_threads = 1;
  exp::Runner parallel(/*parallel=*/true);
  exp::Runner inline_run(/*parallel=*/false);
  const exp::ResultSet rs = parallel.run(sweep, exp::RunOptions{});
  EXPECT_EQ(inline_run.run(sweep, exp::RunOptions{}).to_csv(), rs.to_csv());
  test_ref::expect_rows_match_one_at_a_time(sweep, rs);
}

// --- growth sweeps --------------------------------------------------------

exp::Sweep growth_sweep() {
  exp::Sweep s;
  s.topologies = {exp::representative_spec(Family::Hypercube, 16, 1)};
  s.tms = {exp::a2a_tm()};
  s.solve.kind = mcf::SolverKind::ExactLP;
  s.scenarios = exp::growth_scenarios(3);
  s.base_seed = 5;
  return s;
}

TEST(GrowthSweep, FillsColumnsAndFinalStageMatchesIntact) {
  const exp::Sweep sweep = growth_sweep();
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  ASSERT_EQ(rs.size(), 3u);
  for (int g = 0; g < 3; ++g) {
    const exp::CellResult& r = rs.rows()[static_cast<std::size_t>(g)];
    EXPECT_EQ(r.scenario, "grow(step=" + std::to_string(g) + "/3)");
    EXPECT_EQ(r.growth_step, g);
    EXPECT_EQ(r.risk_group, 0);   // failure cell: actual value, not the NA -1
    EXPECT_EQ(r.tm_scale, 1.0);
    EXPECT_GE(r.throughput, 0.0);
  }
  // The final stage is the full instance: its (exact) throughput matches a
  // plain absolute sweep of the same grid.
  exp::Sweep plain = growth_sweep();
  plain.scenarios.clear();
  exp::Runner plain_runner;
  const exp::ResultSet intact = plain_runner.run(plain, exp::RunOptions{});
  ASSERT_EQ(intact.size(), 1u);
  EXPECT_NEAR(rs.rows()[2].throughput, intact.rows()[0].throughput, 1e-9);
  EXPECT_EQ(intact.rows()[0].growth_step, -1);  // non-failure cell keeps NA
  // On the engine a full installation is no perturbation: the solve is
  // bitwise the intact one.
  const std::shared_ptr<const Network> net = sweep.topologies[0].build();
  const TrafficMatrix tm = all_to_all(*net);
  mcf::ThroughputEngine engine(*net);
  mcf::ScenarioSpec full;
  full.installed_fraction = 1.0;
  engine.apply_scenario(full);
  EXPECT_EQ(engine.failed_edge_count(), 0);
  EXPECT_EQ(engine.solve(tm, lp_opts()).throughput,
            mcf::ThroughputEngine(*net).solve(tm, lp_opts()).throughput);
}

TEST(GrowthSweep, RowsMatchExplicitNodeTailReference) {
  // Odd switch count: stage 0 installs round(0.5 * 13) = round(6.5), so the
  // reference exercises llround's half-away-from-zero rounding.
  const Network jf = make_jellyfish(13, 4, 1, /*seed=*/3);
  const int n = jf.graph.num_nodes();
  ASSERT_EQ(n, 13);
  const int steps = 5;
  exp::Sweep sweep;
  sweep.topologies = {exp::instance_spec(jf)};
  sweep.tms = {exp::a2a_tm()};
  sweep.solve = lp_opts();
  sweep.scenarios = exp::growth_scenarios(steps);
  sweep.base_seed = 11;
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  ASSERT_EQ(rs.size(), static_cast<std::size_t>(steps));

  // The group's TM comes from the scenario-0 cell stream (runner.h).
  const TrafficMatrix tm =
      sweep.tms[0].build(jf, mix_seed(mix_seed(sweep.base_seed, 0), 0));
  std::vector<int> installed_counts;
  for (int g = 0; g < steps; ++g) {
    // The documented ladder: fraction 1/2 + (1/2) g / (S - 1), exactly 1
    // at the final stage; k = max(2, min(n, round(f n))) switches stay.
    const double f =
        g == steps - 1 ? 1.0 : 0.5 + 0.5 * g / static_cast<double>(steps - 1);
    const int k = static_cast<int>(
        std::max<long long>(2, std::min<long long>(n, std::llround(f * n))));
    installed_counts.push_back(k);
    mcf::ScenarioSpec spec;
    for (int v = k; v < n; ++v) spec.failed_nodes.push_back(v);
    const auto index = static_cast<std::uint64_t>(g);
    spec.seed = mix_seed(mix_seed(sweep.base_seed, index), 2);
    const test_ref::RefCell ref =
        test_ref::one_at_a_time(jf, tm, spec, lp_opts());
    const exp::CellResult& r = rs.rows()[static_cast<std::size_t>(g)];
    const std::string where = "stage " + std::to_string(g);
    EXPECT_EQ(r.throughput, ref.result.throughput) << where;
    EXPECT_EQ(r.failed_links, ref.failed_links) << where;
    EXPECT_EQ(r.growth_step, g) << where;
    EXPECT_EQ(r.scenario, "grow(step=" + std::to_string(g) + "/5)") << where;
  }
  EXPECT_EQ(installed_counts, (std::vector<int>{7, 8, 10, 11, 13}));
}

TEST(GrowthSweep, SerialAndParallelCsvIdentical) {
  // Growth stages are ordinary scenario points, so they share one axis
  // with random link failures.
  exp::Sweep sweep = growth_sweep();
  const std::vector<exp::ScenarioPoint> fail =
      exp::random_failure_scenarios({0.1});
  sweep.scenarios.insert(sweep.scenarios.end(), fail.begin(), fail.end());
  exp::Runner serial(/*parallel=*/false);
  exp::Runner parallel(/*parallel=*/true);
  const exp::ResultSet rs = parallel.run(sweep, exp::RunOptions{});
  EXPECT_EQ(serial.run(sweep, exp::RunOptions{}).to_csv(), rs.to_csv());
  ASSERT_EQ(rs.size(), 4u);
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(rs.rows()[static_cast<std::size_t>(g)].growth_step, g);
  }
  EXPECT_EQ(rs.rows()[3].scenario, "fail(f=0.1)");
  EXPECT_EQ(rs.rows()[3].growth_step, -1);
  EXPECT_GT(rs.rows()[3].failed_links, 0);
}

TEST(GrowthSweep, ShardedMergeReproducesUnshardedBytes) {
  const exp::Sweep sweep = growth_sweep();
  exp::Runner whole;
  const std::string expected =
      "# growth\n" + whole.run(sweep, exp::RunOptions{}).to_csv() + "\n";
  std::string cat;
  for (std::size_t i = 0; i < 2; ++i) {
    exp::Runner shard_runner;  // fresh runner: a separate machine
    exp::RunOptions opts;
    opts.shard = exp::ShardSpec{i, 2};
    std::ostringstream os;
    shard_runner.run(sweep, opts).emit(os, "growth");
    cat += os.str();
  }
  std::istringstream in(cat);
  EXPECT_EQ(exp::merge_slices(in), expected);
}

TEST(GrowthSweep, ModeValidationRejectsBadCombos) {
  // Growth stages live on the scenario axis, so the failures-mode rules
  // reject the same combinations. Cut bounds are priced on each stage's
  // installed network.
  exp::Runner runner;
  exp::Sweep s = growth_sweep();
  s.trials = 2;
  EXPECT_THROW(runner.run(s, exp::RunOptions{}), std::invalid_argument);
  s = growth_sweep();
  s.cut_bounds = true;
  const exp::ResultSet with_cuts = runner.run(s, exp::RunOptions{});
  for (const exp::CellResult& r : with_cuts.rows()) {
    EXPECT_FALSE(r.cut_method.empty()) << r.scenario;
    EXPECT_GE(r.cut_bound, r.throughput * (1.0 - 1e-9)) << r.scenario;
  }
  // The ladder needs a stage, and the engine an installed fraction in
  // (0, 1].
  EXPECT_THROW(exp::growth_scenarios(0), std::invalid_argument);
  const Network hc = make_hypercube(3);
  mcf::ThroughputEngine engine(hc);
  for (const double bad : {0.0, -0.1, 1.5, std::nan("")}) {
    mcf::ScenarioSpec spec;
    spec.installed_fraction = bad;
    EXPECT_THROW(engine.apply_scenario(spec), std::invalid_argument) << bad;
  }
}

// --- correlated failures through the sweep --------------------------------

TEST(ScenarioSweep, CorrelatedFailuresColumnsAndThreadInvariance) {
  exp::Sweep sweep;
  sweep.topologies = {exp::instance_spec(make_jellyfish(16, 4, 1, 3))};
  sweep.tms = {exp::a2a_tm()};
  sweep.solve.kind = mcf::SolverKind::ExactLP;
  sweep.scenarios = exp::correlated_group_scenarios({0.25});
  sweep.scenarios.push_back(exp::surge_scenario(1.5));
  sweep.base_seed = 7;

  exp::Runner serial(/*parallel=*/false);
  exp::Runner parallel(/*parallel=*/true);
  const exp::ResultSet rs = parallel.run(sweep, exp::RunOptions{});
  EXPECT_EQ(serial.run(sweep, exp::RunOptions{}).to_csv(), rs.to_csv());

  ASSERT_EQ(rs.size(), 2u);
  const std::size_t groups =
      sweep.topologies[0].build()->risk_groups.size();
  const exp::CellResult& correlated = rs.rows()[0];
  EXPECT_EQ(correlated.scenario, "groups(f=0.25)");
  EXPECT_EQ(correlated.risk_group,
            static_cast<int>(std::llround(0.25 * static_cast<double>(groups))));
  EXPECT_GT(correlated.failed_links, 0);
  EXPECT_EQ(correlated.tm_scale, 1.0);
  const exp::CellResult& surge = rs.rows()[1];
  EXPECT_EQ(surge.scenario, "surge(x=1.5)");
  EXPECT_EQ(surge.risk_group, 0);
  EXPECT_EQ(surge.failed_links, 0);
  EXPECT_EQ(surge.tm_scale, 1.5);
  for (const exp::CellResult& r : rs.rows()) {
    EXPECT_EQ(r.growth_step, -1);  // failure axis, not growth
    EXPECT_FALSE(std::isnan(r.throughput_drop));
  }
}

// --- result schema --------------------------------------------------------

TEST(Results, SchemaCarriesStructuredScenarioColumns) {
  // Column order is part of the byte contract; the store's schema hash is
  // derived from the header, so the new columns bump it automatically and
  // pre-PR stores are rejected loudly instead of mis-parsed.
  EXPECT_NE(
      exp::csv_header().find("throughput_drop,risk_group,tm_scale,growth_step,pivots"),
      std::string::npos);
  EXPECT_EQ(store::store_schema_fingerprint(),
            store::fnv1a64(exp::csv_header()));
}

// --- adversarial worst-case search ----------------------------------------

TEST(Adversary, SearchIsDeterministicAndNoWorseThanLm) {
  const Network jf = make_jellyfish(12, 3, 1, /*seed=*/5);
  mcf::WorstCaseOptions opts;
  opts.iterations = 8;
  opts.restarts = 1;
  opts.seed = 3;
  opts.solve = lp_opts();
  const mcf::WorstCaseResult a = mcf::worst_case_matching(jf, opts);
  const mcf::WorstCaseResult b = mcf::worst_case_matching(jf, opts);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.initial, b.initial);
  EXPECT_EQ(a.solves, b.solves);
  ASSERT_EQ(a.tm.demands.size(), b.tm.demands.size());
  for (std::size_t i = 0; i < a.tm.demands.size(); ++i) {
    EXPECT_EQ(a.tm.demands[i].src, b.tm.demands[i].src);
    EXPECT_EQ(a.tm.demands[i].dst, b.tm.demands[i].dst);
    EXPECT_EQ(a.tm.demands[i].amount, b.tm.demands[i].amount);
  }

  // The longest-matching candidate anchors the search: the result can only
  // be at least as hard (decreases are accepted, never increases).
  EXPECT_GT(a.initial, 0.0);
  EXPECT_LE(a.throughput, a.initial + 1e-12);
  EXPECT_GT(a.solves, 0);

  // The reported TM is a valid aggregated matching TM.
  EXPECT_EQ(a.tm.name, "WorstCase");
  ASSERT_FALSE(a.tm.demands.empty());
  for (const Demand& d : a.tm.demands) {
    EXPECT_NE(d.src, d.dst);
    EXPECT_GE(d.src, 0);
    EXPECT_LT(d.src, jf.graph.num_nodes());
    EXPECT_GE(d.dst, 0);
    EXPECT_LT(d.dst, jf.graph.num_nodes());
    EXPECT_GT(d.amount, 0.0);
  }
}

TEST(Adversary, RoundingNoiseIsNotAnImprovement) {
  // On Hypercube(d=4) the LM anchor's throughput, 1, is the worst any
  // matching reaches; ExactLP returns equal optima with a few ulps of
  // TM-dependent rounding (the anchor reads 0x1.0000000000018p+0, a
  // candidate 0x1.ffffffffffffep-1). Such a candidate is a tie, so the
  // anchor survives the default search bitwise.
  const Network hc = make_hypercube(4);
  const mcf::WorstCaseResult r = mcf::worst_case_matching(hc);
  EXPECT_EQ(r.throughput, r.initial);
  const TrafficMatrix lm = longest_matching(hc);
  ASSERT_EQ(r.tm.demands.size(), lm.demands.size());
  for (std::size_t i = 0; i < lm.demands.size(); ++i) {
    EXPECT_EQ(r.tm.demands[i].src, lm.demands[i].src);
    EXPECT_EQ(r.tm.demands[i].dst, lm.demands[i].dst);
    EXPECT_EQ(r.tm.demands[i].amount, lm.demands[i].amount);
  }
}

TEST(Adversary, RejectsInvalidArguments) {
  const Network jf = make_jellyfish(12, 3, 1, /*seed=*/5);
  mcf::WorstCaseOptions bad;
  bad.iterations = -1;
  EXPECT_THROW(mcf::worst_case_matching(jf, bad), std::invalid_argument);
  bad = {};
  bad.restarts = -1;
  EXPECT_THROW(mcf::worst_case_matching(jf, bad), std::invalid_argument);

  // Fewer than two server slots: no matching exists.
  Network tiny;
  tiny.name = "tiny";
  tiny.graph = Graph(2);
  tiny.graph.add_edge(0, 1);
  tiny.graph.finalize();
  tiny.servers = {1, 0};
  EXPECT_THROW(mcf::worst_case_matching(tiny), std::invalid_argument);
}

}  // namespace
}  // namespace tb
