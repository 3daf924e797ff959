// Extension: the expander zoo. The paper's headline finding — expanders
// win at scale — was confirmed by Xpander (HotNets'15, cited as [44]).
// This bench lines up the expander-family designs (Jellyfish, Xpander,
// Long Hop, Slim Fly) against classic HPC baselines (hypercube, 2-D torus)
// at comparable gear, under A2A and LM, normalized by same-equipment
// random graphs.
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV.
#include <iostream>
#include <memory>
#include <string>

#include "exp/runner.h"
#include "graph/algorithms.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "topo/longhop.h"
#include "topo/slimfly.h"
#include "topo/torus.h"
#include "topo/xpander.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Extension: expander designs vs classic HPC baselines "
      "(relative throughput, same-equipment normalization)";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.06);
  sweep.trials = exp::trials_knob(2);
  sweep.base_seed = 11;
  sweep.topologies = {
      exp::instance_spec(make_jellyfish(64, 6, 1, 5)),
      exp::instance_spec(make_xpander(6, 9, 1, 5)),   // 63 switches, d=6
      exp::instance_spec(make_long_hop(6, 2, 1, 5)),  // 64 switches, d=8
      exp::instance_spec(make_slim_fly(5, 1)),        // 50 switches, d=7
      exp::instance_spec(make_hypercube(6)),          // 64 switches, d=6
      exp::instance_spec(make_torus({8, 8}, 1))};     // 64 switches, d=4
  sweep.tms = {exp::a2a_tm(), exp::longest_matching_tm()};

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"network", "switches", "degree", "diameter", "rel_A2A",
               "rel_LM"});
  for (const exp::TopoSpec& topo : sweep.topologies) {
    const std::shared_ptr<const Network> net = topo.build();
    table.add_row({topo.label, std::to_string(net->graph.num_nodes()),
                   std::to_string(net->graph.degree(0)),
                   std::to_string(diameter(net->graph)),
                   Table::fmt(rs.at(topo.label, "A2A").relative, 3),
                   Table::fmt(rs.at(topo.label, "LM").relative, 3)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
