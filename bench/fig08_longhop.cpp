// Figure 8: Long Hop networks' relative throughput under the longest-
// matching TM, for three construction richness levels ("dimension" = the
// number of extra long-hop code generators; see "Substitutions" in
// docs/ARCHITECTURE.md) across network sizes.
//
// Paper claims reproduced: Long Hop tracks the same-equipment random graph
// closely, approaching relative throughput 1 at larger sizes — i.e. high
// performance, but no better than random graphs.
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV, TOPOBENCH_MAX_SERVERS (default 256) drops the larger dimensions for
// smoke runs.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "topo/longhop.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption = "Fig 8: Long Hop relative throughput under LM";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.10);
  sweep.trials = exp::trials_knob(2);
  sweep.base_seed = 5000;
  sweep.tms = {exp::longest_matching_tm()};
  const int max_servers = exp::max_servers_knob(256);
  std::vector<int> extras;  // per topology, in sweep order
  std::vector<int> degrees;
  for (const int extra : {5, 6, 7}) {
    for (int dim = 5; dim <= 8; ++dim) {
      Network net =
          make_long_hop(dim, extra, /*servers_per_switch=*/1, /*seed=*/7);
      if (net.total_servers() > max_servers) continue;
      sweep.topologies.push_back(exp::instance_spec(std::move(net)));
      extras.push_back(extra);
      degrees.push_back(dim + extra);
    }
  }

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"dimension", "servers", "switches", "degree", "rel_LM"});
  for (std::size_t i = 0; i < extras.size(); ++i) {
    const exp::CellResult& lm = rs.at(sweep.topologies[i].label, "LM");
    table.add_row({std::to_string(extras[i]), std::to_string(lm.servers),
                   std::to_string(lm.switches), std::to_string(degrees[i]),
                   Table::fmt(lm.relative, 3)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
