// Figure 12: the fat-tree anomaly in absolute throughput. Fat tree vs
// hypercube vs Jellyfish networks built with the same equipment as each,
// under the elephant-weighted LM TM.
//
// Paper claims reproduced: the hypercube and both matched-gear Jellyfish
// networks degrade gracefully as the elephant fraction grows; the fat tree
// collapses at small x because a single weight-10 flow saturates its
// ToR-local uplinks (no non-local traffic shares ToR links).
//
// Runs on the experiment runner in absolute mode with fixed TMs:
// TOPOBENCH_CSV=1 emits the uniform cell CSV, one TM family per elephant
// fraction.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "tm/synthetic.h"
#include "topo/fattree.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Fig 12: absolute throughput vs elephant fraction (weight-10 flows, LM "
      "base)";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.06);
  sweep.base_seed = 12;
  // Explicit labels: the column names are the identities (both random
  // graphs would otherwise be named after their reference network).
  const auto labelled = [](std::string label, Network net) {
    exp::TopoSpec spec = exp::instance_spec(std::move(net));
    spec.label = std::move(label);
    return spec;
  };
  const Network ft = make_fat_tree(8);   // 128 servers
  const Network hc = make_hypercube(7);  // 128 switches
  sweep.topologies = {
      labelled("FatTree", ft), labelled("Hypercube", hc),
      labelled("Jellyfish(hc gear)", make_same_equipment_random(hc, 21)),
      labelled("Jellyfish(ft gear)", make_same_equipment_random(ft, 22))};
  const std::vector<double> fractions = {0.01, 0.02, 0.05, 0.10,
                                         0.20, 0.50, 1.00};
  for (const double frac : fractions) {
    const std::string x = Table::fmt(100.0 * frac, 0);
    sweep.tms.push_back({"LM+elephants(x=" + x + "%)",
                         [frac](const Network& net, std::uint64_t) {
                           return with_elephants(longest_matching(net), frac,
                                                 10.0, /*seed=*/31);
                         }});
  }

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  std::vector<std::string> header{"x%"};
  for (const exp::TopoSpec& topo : sweep.topologies) {
    header.push_back(topo.label);
  }
  Table table(std::move(header));
  for (std::size_t m = 0; m < fractions.size(); ++m) {
    std::vector<std::string> row{Table::fmt(100.0 * fractions[m], 0)};
    for (const exp::TopoSpec& topo : sweep.topologies) {
      row.push_back(
          Table::fmt(rs.at(topo.label, sweep.tms[m].label).throughput, 3));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
