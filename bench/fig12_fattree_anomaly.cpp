// Figure 12: the fat-tree anomaly in absolute throughput. Fat tree vs
// hypercube vs Jellyfish networks built with the same equipment as each,
// under the elephant-weighted LM TM.
//
// Paper claims reproduced: the hypercube and both matched-gear Jellyfish
// networks degrade gracefully as the elephant fraction grows; the fat tree
// collapses at small x because a single weight-10 flow saturates its
// ToR-local uplinks (no non-local traffic shares ToR links).
#include <iostream>
#include <string>

#include "bench_common.h"
#include "mcf/engine.h"
#include "tm/synthetic.h"
#include "topo/fattree.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"

int main() {
  using namespace tb;
  const double eps = bench::env_eps(0.06);

  const Network ft = make_fat_tree(8);       // 128 servers
  const Network hc = make_hypercube(7);      // 128 switches
  const Network jf_hc = make_same_equipment_random(hc, 21);
  const Network jf_ft = make_same_equipment_random(ft, 22);

  Table table({"x%", "FatTree", "Hypercube", "Jellyfish(hc gear)",
               "Jellyfish(ft gear)"});
  for (const double frac : {0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00}) {
    std::vector<std::string> row{Table::fmt(100.0 * frac, 0)};
    for (const Network* net : {&ft, &hc, &jf_hc, &jf_ft}) {
      const TrafficMatrix base = longest_matching(*net);
      const TrafficMatrix tm = with_elephants(base, frac, 10.0, /*seed=*/31);
      mcf::SolveOptions opts;
      opts.epsilon = eps;
      const double thr = mcf::ThroughputEngine(*net).solve(tm, opts).throughput;
      row.push_back(Table::fmt(thr, 3));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table,
              "Fig 12: absolute throughput vs elephant fraction (weight-10 "
              "flows, LM base)");
  return 0;
}
