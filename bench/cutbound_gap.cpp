// Cut-bound tightness: measured throughput against the best certified
// cut-based upper bound across a topology × size × TM grid — the paper's
// Fig 3 / Table II comparison, now with the exact s-t min cuts of
// src/flow/ in the estimator battery, so every row carries a certified
// throughput-vs-cut gap (gap = cut_bound / throughput >= 1 up to solver
// tolerance; the paper reports spreads up to ~3x under near-worst-case
// TMs).
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV (cut_bound / cut_gap / cut_method columns filled),
// TOPOBENCH_TARGET_SERVERS shrinks the grid for smoke runs and
// TOPOBENCH_MAX_SERVERS overrides the ladder cutoff directly (default:
// twice the target).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "exp/runner.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Cut-bound gap: throughput vs best certified cut upper bound";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.05);
  sweep.base_seed = 23;
  sweep.cut_bounds = true;
  const int target = exp::target_servers_knob(24);
  const int max_servers =
      exp::max_servers_knob(std::min(2 * target, 1'000'000));
  sweep.topologies =
      exp::ladder_specs(all_families(), 4, max_servers, /*seed=*/1);
  sweep.tms = {exp::a2a_tm(), exp::random_matching_tm(1),
               exp::longest_matching_tm()};

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"topology", "switches", "tm", "throughput", "cut_bound",
               "cut_method", "gap"});
  double worst_gap = 0.0;
  for (const exp::CellResult& r : rs.rows()) {
    table.add_row({r.topology, std::to_string(r.switches), r.tm,
                   Table::fmt(r.throughput, 3), Table::fmt(r.cut_bound, 3),
                   r.cut_method, Table::fmt(r.cut_gap, 3)});
    if (!std::isnan(r.cut_gap)) worst_gap = std::max(worst_gap, r.cut_gap);
  }
  table.print(std::cout, caption);
  std::cout << "max cut/throughput gap: " << Table::fmt(worst_gap, 2)
            << "x  (paper reports up to ~3x)\n";
  return 0;
}
