// Test-local reference for mcf::ScenarioFleet. A fleet cell promises to be
// bitwise the one-at-a-time sequence on a fresh engine: cold solve, then
// apply_scenario, then warm_solve. one_at_a_time() builds that sequence
// from ThroughputEngine calls only, so fleet tests check the batch against
// a path that does not go through the fleet.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "mcf/engine.h"
#include "tm/traffic_matrix.h"
#include "topo/network.h"

namespace tb::test_ref {

inline mcf::FleetCell one_at_a_time(const Network& net, const TrafficMatrix& tm,
                                    const mcf::ScenarioSpec& spec,
                                    const mcf::SolveOptions& opts) {
  mcf::ThroughputEngine engine(net);
  mcf::FleetCell cell;
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

/// Every field of two fleet cells, compared bitwise.
inline void expect_same_cell(const mcf::FleetCell& a, const mcf::FleetCell& b,
                             const std::string& where) {
  EXPECT_EQ(a.baseline, b.baseline) << where;
  EXPECT_EQ(a.result.throughput, b.result.throughput) << where;
  EXPECT_EQ(a.result.upper_bound, b.result.upper_bound) << where;
  EXPECT_EQ(a.result.solver, b.result.solver) << where;
  EXPECT_EQ(a.result.stats.pivots, b.result.stats.pivots) << where;
  EXPECT_EQ(a.result.stats.phases, b.result.stats.phases) << where;
  EXPECT_EQ(a.result.stats.dijkstras, b.result.stats.dijkstras) << where;
  EXPECT_EQ(a.result.stats.warm_start, b.result.stats.warm_start) << where;
  EXPECT_EQ(a.drop, b.drop) << where;
  EXPECT_EQ(a.failed_links, b.failed_links) << where;
  EXPECT_EQ(a.failed_groups, b.failed_groups) << where;
}

}  // namespace tb::test_ref
