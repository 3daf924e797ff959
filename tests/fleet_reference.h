// Test-local reference for the runner's failures mode. A failure cell
// promises to be bitwise the one-at-a-time sequence on a fresh engine:
// cold solve, then apply_scenario, then warm_solve. one_at_a_time() builds
// that sequence from ThroughputEngine calls only, so failure-sweep tests
// check the runner's forked per-scenario sessions against a path that
// neither forks nor shares a baseline.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/results.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "mcf/engine.h"
#include "tm/traffic_matrix.h"
#include "topo/network.h"
#include "util/rng.h"

namespace tb::test_ref {

/// One scenario evaluated one-at-a-time: the degraded solve plus the
/// baseline context the runner derives its columns from.
struct RefCell {
  mcf::ThroughputResult result;  ///< degraded warm solve
  double baseline = 0.0;         ///< intact cold throughput
  double drop = 0.0;             ///< 1 - degraded/baseline (0 at baseline 0)
  int failed_links = 0;
  int failed_groups = 0;
};

inline RefCell one_at_a_time(const Network& net, const TrafficMatrix& tm,
                             const mcf::ScenarioSpec& spec,
                             const mcf::SolveOptions& opts) {
  mcf::ThroughputEngine engine(net);
  RefCell cell;
  cell.baseline = engine.solve(tm, opts).throughput;
  engine.apply_scenario(spec);
  cell.result = engine.warm_solve(tm, opts);
  cell.failed_links = engine.failed_edge_count();
  cell.failed_groups = engine.failed_group_count();
  cell.drop = cell.baseline > 0.0
                  ? 1.0 - cell.result.throughput / cell.baseline
                  : 0.0;
  return cell;
}

/// The spec the runner applies to flat cell `index` of a failures-mode
/// sweep: the point's spec with the failure sampler on the cell's stream
/// mix_seed(base, cell, trials + 2) (exp/runner.h).
inline mcf::ScenarioSpec runner_spec(const exp::Sweep& sweep,
                                     std::size_t index) {
  mcf::ScenarioSpec spec =
      sweep.scenarios[index % sweep.scenarios.size()].spec;
  spec.seed = mix_seed(mix_seed(sweep.base_seed, index),
                       static_cast<std::uint64_t>(sweep.trials) + 2);
  return spec;
}

/// Every row of an unsharded failures-mode run of `sweep`, field by field,
/// against its one-at-a-time reference. The reference follows the seeding
/// contract of exp/runner.h independently: the group's TM comes from its
/// scenario-0 cell stream, the failure sampler from the cell's own.
inline void expect_rows_match_one_at_a_time(const exp::Sweep& sweep,
                                            const exp::ResultSet& rs) {
  const std::vector<exp::Cell> cells = exp::expand(sweep);
  ASSERT_EQ(rs.size(), cells.size());
  for (const exp::Cell& c : cells) {
    const std::shared_ptr<const Network> net = sweep.topologies[c.topo].build();
    const std::size_t floor = c.index - c.scenario;
    const TrafficMatrix tm = sweep.tms[c.tm].build(
        *net, mix_seed(mix_seed(sweep.base_seed, floor), 0));
    const exp::ScenarioPoint& point = sweep.scenarios[c.scenario];
    const mcf::ScenarioSpec spec = runner_spec(sweep, c.index);
    const RefCell ref = one_at_a_time(*net, tm, spec, sweep.solve);

    const exp::CellResult& r = rs.rows()[c.index];
    const std::string where = "cell " + std::to_string(c.index);
    // Identity columns.
    EXPECT_EQ(r.cell, c.index) << where;
    EXPECT_EQ(r.topology, sweep.topologies[c.topo].label) << where;
    EXPECT_EQ(r.servers, net->total_servers()) << where;
    EXPECT_EQ(r.switches, net->graph.num_nodes()) << where;
    EXPECT_EQ(r.tm, sweep.tms[c.tm].label) << where;
    EXPECT_EQ(r.seed, mix_seed(sweep.base_seed, c.index)) << where;
    EXPECT_EQ(r.solver, exp::solver_label(sweep.solve)) << where;
    EXPECT_EQ(r.trials, 0) << where;
    EXPECT_EQ(r.scenario, point.label) << where;
    EXPECT_EQ(r.solver_threads, sweep.solve.solver_threads) << where;
    // Result columns, bitwise.
    EXPECT_EQ(r.throughput, ref.result.throughput) << where;
    EXPECT_EQ(r.failed_links, ref.failed_links) << where;
    EXPECT_EQ(r.throughput_drop, ref.drop) << where;
    EXPECT_EQ(r.risk_group, ref.failed_groups) << where;
    EXPECT_EQ(r.tm_scale, spec.tm_scale) << where;
    EXPECT_EQ(r.growth_step, point.growth_step) << where;
    EXPECT_EQ(r.pivots, ref.result.stats.pivots) << where;
    EXPECT_EQ(r.phases, ref.result.stats.phases) << where;
    EXPECT_EQ(r.dijkstras, ref.result.stats.dijkstras) << where;
    EXPECT_EQ(r.warm, ref.result.stats.warm_start ? 1 : 0) << where;
    // Columns failures mode leaves at their NA sentinels.
    EXPECT_TRUE(std::isnan(r.random_mean)) << where;
    EXPECT_TRUE(std::isnan(r.relative)) << where;
    EXPECT_TRUE(std::isnan(r.cut_bound)) << where;
    EXPECT_TRUE(r.cut_method.empty()) << where;
    EXPECT_EQ(r.pushes, 0) << where;
  }
}

}  // namespace tb::test_ref
