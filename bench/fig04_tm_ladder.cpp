// Figure 4: throughput under different TMs, normalized by the theoretical
// lower bound T_A2A / 2 (so A2A plots at 2.0 and the bound at 1.0), for a
// representative instance of each of the ten topology families.
//
// Paper claims reproduced: for every network,
//     T_A2A >= T_RM(5) >= T_RM(1) >= T_LM >= 1 (the bound);
// LM pushes BCube / Hypercube / HyperX (and nearly Dragonfly) to the
// bound, while on fat trees LM stays at the A2A level (the bound is loose
// there, not the metric).
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV, and TOPOBENCH_TARGET_SERVERS shrinks the instances for smoke runs.
#include <iostream>
#include <string>

#include "exp/runner.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Fig 4: throughput normalized so the Theorem-2 lower bound = 1";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.05);
  sweep.base_seed = 11;
  const int target = exp::target_servers_knob(128);
  for (const Family f : all_families()) {
    sweep.topologies.push_back(exp::representative_spec(f, target, /*seed=*/1));
  }
  sweep.tms = {exp::a2a_tm(), exp::random_matching_tm(5),
               exp::random_matching_tm(1), exp::longest_matching_tm()};

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"topology", "servers", "A2A", "RM(5)", "RM(1)", "LM"});
  for (const exp::TopoSpec& topo : sweep.topologies) {
    const exp::CellResult& a2a = rs.at(topo.label, "A2A");
    const double bound = a2a.throughput / 2.0;
    table.add_row({topo.label, std::to_string(a2a.servers),
                   Table::fmt(a2a.throughput / bound, 3),
                   Table::fmt(rs.at(topo.label, "RM(5)").throughput / bound, 3),
                   Table::fmt(rs.at(topo.label, "RM(1)").throughput / bound, 3),
                   Table::fmt(rs.at(topo.label, "LM").throughput / bound, 3)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
