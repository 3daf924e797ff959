// Figure 9: Slim Fly relative throughput under the longest-matching TM and
// relative average path length (Slim Fly / same-equipment random graph).
//
// Paper claims reproduced: Slim Fly's paths are ~10-15% shorter than the
// random graph's, yet its LM throughput is no better — short paths do not
// buy worst-case throughput, and relative LM throughput declines with size.
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV. The path-length column is not a throughput cell: the table computes
// it beside the runner against one seeded same-equipment random graph.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "graph/algorithms.h"
#include "topo/jellyfish.h"
#include "topo/slimfly.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Fig 9: Slim Fly relative throughput (LM) and relative path length";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.10);
  sweep.trials = exp::trials_knob(2);
  sweep.base_seed = 6000;
  sweep.tms = {exp::longest_matching_tm(), exp::a2a_tm()};
  const std::vector<int> qs = {5, 13};
  for (const int q : qs) {
    sweep.topologies.push_back(
        exp::instance_spec(make_slim_fly(q, (3 * q - 1) / 4)));
  }

  // Cell-serial: the two q=13 cells hold nearly all the work, and a cell
  // on a pool worker runs its trials and Dijkstra batches inline, so
  // parallel cells would leave two of four cores idle. Serial cells keep
  // the pool for each cell's own solves (same bytes either way).
  exp::Runner runner(/*parallel=*/false);
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"q", "servers", "switches", "rel_LM", "rel_path_len",
               "rel_A2A"});
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const std::string& label = sweep.topologies[i].label;
    const std::shared_ptr<const Network> net = sweep.topologies[i].build();
    const double own_len = average_shortest_path_length(net->graph);
    const Network rnd = make_same_equipment_random(
        *net, mix_seed(mix_seed(6000, static_cast<std::uint64_t>(qs[i])), 99));
    const double rnd_len = average_shortest_path_length(rnd.graph);
    const exp::CellResult& lm = rs.at(label, "LM");
    table.add_row({std::to_string(qs[i]), std::to_string(lm.servers),
                   std::to_string(lm.switches), Table::fmt(lm.relative, 3),
                   Table::fmt(own_len / rnd_len, 3),
                   Table::fmt(rs.at(label, "A2A").relative, 3)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
