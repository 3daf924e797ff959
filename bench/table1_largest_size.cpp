// Table I: relative throughput at the largest size tested for the Figure 5
// families, under all-to-all, random matching and longest matching.
//
// Paper's values (at its larger scale): BCube 73/90/51, DCell 93/97/79,
// Dragonfly 95/76/72, Fat tree 65/73/89, Flattened BF 59/71/47, Hypercube
// 72/84/51 (percent). Shape expectations: all below 100%; fat tree is the
// only family whose LM column beats its A2A column.
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV, TOPOBENCH_TARGET_SERVERS shrinks the instances for smoke runs.
#include <iostream>
#include <string>

#include "exp/runner.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Table I: relative throughput at the largest size tested";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.10);
  sweep.trials = exp::trials_knob(2);
  sweep.base_seed = 2000;
  const int target = exp::target_servers_knob(1'000'000);
  for (const Family f :
       {Family::BCube, Family::DCell, Family::Dragonfly, Family::FatTree,
        Family::FlattenedBF, Family::Hypercube}) {
    sweep.topologies.push_back(exp::representative_spec(f, target, /*seed=*/1));
  }
  sweep.tms = {exp::a2a_tm(), exp::random_matching_tm(1),
               exp::longest_matching_tm()};

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"topology", "servers", "All-To-All", "RandomMatching",
               "LongestMatching"});
  const auto pct = [](double v) { return Table::fmt(100.0 * v, 1) + "%"; };
  for (const exp::TopoSpec& topo : sweep.topologies) {
    const exp::CellResult& a2a = rs.at(topo.label, "A2A");
    table.add_row({topo.label, std::to_string(a2a.servers), pct(a2a.relative),
                   pct(rs.at(topo.label, "RM(1)").relative),
                   pct(rs.at(topo.label, "LM").relative)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
