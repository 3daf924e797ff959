// Figure 8: Long Hop networks' relative throughput under the longest-
// matching TM, for three construction richness levels ("dimension" = the
// number of extra long-hop code generators; see "Substitutions" in
// docs/ARCHITECTURE.md) across network sizes.
//
// Paper claims reproduced: Long Hop tracks the same-equipment random graph
// closely, approaching relative throughput 1 at larger sizes — i.e. high
// performance, but no better than random graphs.
#include <iostream>
#include <string>

#include "bench_common.h"
#include "core/evaluator.h"
#include "tm/synthetic.h"
#include "topo/longhop.h"
#include "util/rng.h"

int main() {
  using namespace tb;
  const double eps = bench::env_eps(0.10);
  const int trials = bench::env_trials(2);

  Table table({"dimension", "servers", "switches", "degree", "rel_LM"});
  for (const int extra : {5, 6, 7}) {
    for (int dim = 5; dim <= 8; ++dim) {
      const Network net =
          make_long_hop(dim, extra, /*servers_per_switch=*/1, /*seed=*/7);
      RelativeOptions opts;
      opts.random_trials = trials;
      opts.solve.epsilon = eps;
      opts.seed = mix_seed(5000, static_cast<std::uint64_t>(extra));
      const RelativeResult lm =
          relative_throughput(net, longest_matching(net), opts);
      table.add_row({std::to_string(extra), std::to_string(net.total_servers()),
                     std::to_string(net.graph.num_nodes()),
                     std::to_string(dim + extra), Table::fmt(lm.relative, 3)});
    }
  }
  bench::emit(table, "Fig 8: Long Hop relative throughput under LM");
  return 0;
}
