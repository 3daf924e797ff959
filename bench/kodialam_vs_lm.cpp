// §II-C / §III-C: longest matching vs the Kodialam TM.
//
// Paper claims reproduced: the two TMs are equally close to the worst case
// (identical on hypercubes and fat trees, near-identical on random
// graphs), but longest matching generates far fewer flows and is computed
// much faster / scales further (the paper reports ~6x faster and 8x larger
// within the same memory).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/sweep.h"
#include "mcf/engine.h"
#include "tm/synthetic.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "util/timer.h"

int main() {
  using namespace tb;
  const double eps = exp::eps_knob(0.05);

  Table table({"network", "hosts", "LM_thr", "Kod_thr", "LM_flows",
               "Kod_flows", "LM_sec", "Kod_sec", "speedup"});
  std::vector<Network> nets;
  for (int d = 3; d <= 5; ++d) nets.push_back(make_hypercube(d));
  for (const int n : {32, 64, 96}) {
    nets.push_back(make_jellyfish(n, 5, 1, 19 + static_cast<unsigned>(n)));
  }
  for (const Network& net : nets) {
    Timer t_lm;
    const TrafficMatrix lm = longest_matching(net);
    const double lm_sec = t_lm.seconds();
    Timer t_kod;
    const TrafficMatrix kod = kodialam_tm(net);
    const double kod_sec = t_kod.seconds();

    mcf::SolveOptions opts;
    opts.epsilon = eps;
    mcf::ThroughputEngine engine(net);
    const double lm_thr = engine.solve(lm, opts).throughput;
    const double kod_thr = engine.solve(kod, opts).throughput;
    table.add_row({net.name, std::to_string(net.host_nodes().size()),
                   Table::fmt(lm_thr, 3), Table::fmt(kod_thr, 3),
                   std::to_string(lm.num_flows()),
                   std::to_string(kod.num_flows()),
                   Table::fmt(lm_sec, 4), Table::fmt(kod_sec, 4),
                   Table::fmt(kod_sec / std::max(lm_sec, 1e-6), 1) + "x"});
  }
  bench::emit(table,
              "Kodialam TM vs longest matching: equal hardness, LM far cheaper");
  return 0;
}
