// Figure 7: HyperX relative throughput under the longest-matching TM for
// least-cost HyperX networks designed to bisection targets 0.2 / 0.4 / 0.5.
//
// Paper claims reproduced: performance varies widely and irregularly with
// size for every bisection target, and a higher designed bisection does
// not imply higher worst-case throughput.
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV. Different bisection targets can pick the same design, so each
// topology label carries its target.
#include <iostream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "topo/hyperx.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Fig 7: HyperX relative throughput under LM vs designed bisection";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.10);
  sweep.trials = exp::trials_knob(2);
  sweep.base_seed = 4000;
  sweep.tms = {exp::longest_matching_tm()};
  std::vector<double> bisections;  // per topology, in sweep order
  std::vector<HyperXParams> designs;
  for (const double beta : {0.2, 0.4, 0.5}) {
    for (const long target : {32L, 64L, 96L, 128L, 192L, 256L}) {
      const auto params = search_hyperx(16, target, beta);
      if (!params) continue;
      exp::TopoSpec spec = exp::instance_spec(make_hyperx(*params));
      spec.label += "@bisection=" + Table::fmt(beta, 1);
      sweep.topologies.push_back(std::move(spec));
      bisections.push_back(beta);
      designs.push_back(*params);
    }
  }

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"bisection", "servers", "L", "S", "K", "T", "rel_LM"});
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const exp::CellResult& lm = rs.at(sweep.topologies[i].label, "LM");
    const HyperXParams& p = designs[i];
    table.add_row({Table::fmt(bisections[i], 1), std::to_string(lm.servers),
                   std::to_string(p.L), std::to_string(p.S),
                   std::to_string(p.K), std::to_string(p.T),
                   Table::fmt(lm.relative, 3)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
