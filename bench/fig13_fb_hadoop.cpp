// Figure 13: the (synthetic stand-in for the) Facebook Hadoop-cluster TM
// (TM-H, near-uniform) mapped onto every topology family, as measured
// ("Sampled", identity rack placement) and with racks randomly permuted
// ("Shuffled").
//
// Paper claims reproduced: TM-H is nearly uniform, so shuffling placement
// barely changes normalized throughput for any family.
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV, one TM family per rack placement. Each cell draws its own
// same-equipment random graphs, so shuffle_gain divides the topology's
// own throughputs (shuffled / sampled): the normalizers would only add
// their sampling noise to the ratio.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "tm/facebook.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Fig 13: Facebook Hadoop TM-H, sampled vs shuffled";
  constexpr int kRacks = 64;

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.10);
  sweep.trials = exp::trials_knob(2);
  sweep.base_seed = 8000;
  const std::vector<Family> families = all_families();
  for (const Family f : families) {
    sweep.topologies.push_back(
        exp::representative_spec(f, kRacks, /*seed=*/1));
  }
  const auto rack_tm = std::make_shared<const std::vector<double>>(
      synth_tm_hadoop(kRacks, /*seed=*/11));
  // Placement seed 0 is the identity ("sampled") mapping.
  const auto placement = [&](std::string label, std::uint64_t pseed) {
    return exp::TmSpec{std::move(label),
                       [rack_tm, pseed](const Network& net, std::uint64_t) {
                         return map_rack_tm(net, *rack_tm, kRacks, pseed);
                       }};
  };
  sweep.tms = {placement("TM-H(sampled)", 0),
               placement("TM-H(shuffled)", 555)};

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"topology", "hosts_used", "sampled", "shuffled",
               "shuffle_gain"});
  for (std::size_t i = 0; i < families.size(); ++i) {
    const exp::TopoSpec& topo = sweep.topologies[i];
    const exp::CellResult& sampled = rs.at(topo.label, "TM-H(sampled)");
    const exp::CellResult& shuffled = rs.at(topo.label, "TM-H(shuffled)");
    const int used = std::min<int>(
        kRacks, static_cast<int>(topo.build()->host_nodes().size()));
    table.add_row({family_name(families[i]), std::to_string(used),
                   Table::fmt(sampled.relative, 3),
                   Table::fmt(shuffled.relative, 3),
                   Table::fmt(shuffled.throughput / sampled.throughput, 3)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
