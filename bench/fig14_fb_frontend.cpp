// Figure 14: the (synthetic stand-in for the) Facebook frontend-cluster TM
// (TM-F, heavily skewed toward cache racks), sampled vs shuffled rack
// placement per topology family.
//
// Paper claims reproduced: under the skewed TM-F, randomizing placement
// significantly improves throughput for every family EXCEPT the expanders
// (Jellyfish, Long Hop, Slim Fly) and the fat tree, which are already
// robust to placement.
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV, one TM family per rack placement (the identity and three shuffles).
// Each cell draws its own same-equipment random graphs, so shuffle_gain
// divides the topology's own throughputs (mean shuffled / sampled): the
// normalizers would only add their sampling noise to the ratio.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "tm/facebook.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Fig 14: Facebook frontend TM-F, sampled vs shuffled";
  constexpr int kRacks = 64;

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.10);
  sweep.trials = exp::trials_knob(2);
  sweep.base_seed = 9000;
  const std::vector<Family> families = all_families();
  for (const Family f : families) {
    sweep.topologies.push_back(
        exp::representative_spec(f, kRacks, /*seed=*/1));
  }
  const auto rack_tm = std::make_shared<const std::vector<double>>(
      synth_tm_frontend(kRacks, /*seed=*/11));
  // Placement seed 0 is the identity ("sampled") mapping.
  const auto placement = [&](std::string label, std::uint64_t pseed) {
    return exp::TmSpec{std::move(label),
                       [rack_tm, pseed](const Network& net, std::uint64_t) {
                         return map_rack_tm(net, *rack_tm, kRacks, pseed);
                       }};
  };
  sweep.tms = {placement("TM-F(sampled)", 0)};
  for (const std::uint64_t pseed : {501ULL, 502ULL, 503ULL}) {
    sweep.tms.push_back(placement(
        "TM-F(shuffled,placement=" + std::to_string(pseed) + ")", pseed));
  }

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"topology", "hosts_used", "sampled", "shuffled(mean of 3)",
               "shuffle_gain"});
  for (std::size_t i = 0; i < families.size(); ++i) {
    const exp::TopoSpec& topo = sweep.topologies[i];
    const exp::CellResult& sampled =
        rs.at(topo.label, sweep.tms.front().label);
    std::vector<double> shuffled_rel;
    std::vector<double> shuffled_abs;
    for (std::size_t m = 1; m < sweep.tms.size(); ++m) {
      const exp::CellResult& r = rs.at(topo.label, sweep.tms[m].label);
      shuffled_rel.push_back(r.relative);
      shuffled_abs.push_back(r.throughput);
    }
    const int used = std::min<int>(
        kRacks, static_cast<int>(topo.build()->host_nodes().size()));
    table.add_row({family_name(families[i]), std::to_string(used),
                   Table::fmt(sampled.relative, 3),
                   Table::fmt(mean_of(shuffled_rel), 3),
                   Table::fmt(mean_of(shuffled_abs) / sampled.throughput, 3)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
