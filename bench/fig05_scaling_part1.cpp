// Figure 5: relative throughput (normalized by same-equipment random
// graphs) vs network size under (a) all-to-all, (b) random matching and
// (c) longest matching, for BCube, DCell, Dragonfly, fat tree, flattened
// butterfly and hypercube.
//
// Paper claims reproduced: relative performance of most of these families
// degrades with scale; which family "wins" depends on the TM (Dragonfly
// strong under A2A, fat tree strongest under LM at the largest sizes).
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV, TOPOBENCH_MAX_SERVERS shrinks the ladder for smoke runs.
#include <iostream>

#include "exp/runner.h"

int main() {
  using namespace tb;
  const std::string caption = "Fig 5: relative throughput vs size (part 1)";
  const exp::Sweep sweep = exp::relative_scaling_sweep(
      {Family::BCube, Family::DCell, Family::Dragonfly, Family::FatTree,
       Family::FlattenedBF, Family::Hypercube},
      /*max_servers=*/500);
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;
  exp::relative_pivot(rs, sweep).print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
