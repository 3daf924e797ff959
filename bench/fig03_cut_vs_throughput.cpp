// Figure 3: throughput vs. sparse cut, both computed under the longest-
// matching TM, for instances of the ten topology families plus the
// natural-network suite. Every point must lie on or below the cut (cut
// upper-bounds flow); the paper's finding is the spread — cuts exceed
// throughput by up to ~3x, so cuts mispredict worst-case throughput.
//
// Runs on the experiment runner with Sweep::cut_bounds: every cell carries
// the best certified cut-based upper bound (cut_bound / cut_gap /
// cut_method columns, bisection included via core's cut_upper_bound).
// TOPOBENCH_CSV=1 emits the uniform cell CSV; TOPOBENCH_MAX_SERVERS caps
// the per-family instances for smoke runs.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "exp/runner.h"
#include "topo/natural.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Fig 3: throughput vs best sparse cut (longest-matching TM)";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.04);
  sweep.base_seed = 17;
  sweep.cut_bounds = true;
  const int max_servers = exp::max_servers_knob(160);
  for (const Family f : all_families()) {
    // Small instances keep the two-node / expanding heuristics exhaustive.
    std::vector<Network> inst = family_instances(f, 1, max_servers, /*seed=*/3);
    const std::size_t keep = std::min<std::size_t>(inst.size(), 2);
    for (std::size_t i = 0; i < keep; ++i) {
      sweep.topologies.push_back(exp::instance_spec(std::move(inst[i])));
    }
  }
  for (Network& net : natural_network_suite(12, /*seed=*/5)) {
    sweep.topologies.push_back(exp::instance_spec(std::move(net)));
  }
  sweep.tms = {exp::longest_matching_tm()};

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"network", "switches", "throughput", "cut_bound", "cut_method",
               "cut/throughput"});
  double worst_ratio = 0.0;
  for (const exp::CellResult& r : rs.rows()) {
    table.add_row({r.topology, std::to_string(r.switches),
                   Table::fmt(r.throughput, 3), Table::fmt(r.cut_bound, 3),
                   r.cut_method, Table::fmt(r.cut_gap, 3)});
    if (!std::isnan(r.cut_gap)) worst_ratio = std::max(worst_ratio, r.cut_gap);
  }
  table.print(std::cout, caption);
  std::cout << "max cut/throughput discrepancy: " << Table::fmt(worst_ratio, 2)
            << "x  (paper reports up to ~3x)\n";
  return 0;
}
