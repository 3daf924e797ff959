// Ablation of the longest-matching TM's construction (paper §II-C): the
// exact Hungarian max-weight matching vs a greedy matching vs a random
// matching. Reported per network: the matching's total path length (the
// objective) and the resulting throughput (lower = harder = better as a
// worst-case proxy).
#include <iostream>
#include <string>

#include "bench_common.h"
#include "graph/algorithms.h"
#include "mcf/engine.h"
#include "tm/synthetic.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "topo/slimfly.h"

namespace {

using namespace tb;

double tm_path_length(const Network& net, const TrafficMatrix& tm) {
  const std::vector<int> all = all_pairs_distances(net.graph);
  double sum = 0.0;
  for (const Demand& d : tm.demands) {
    sum += d.amount * apd_at(all, net.graph.num_nodes(), d.src, d.dst);
  }
  return sum;
}

}  // namespace

int main() {
  const double eps = bench::env_eps(0.05);

  Table table({"network", "TM", "total_path_len", "throughput"});
  std::vector<Network> nets;
  nets.push_back(make_hypercube(6));
  nets.push_back(make_jellyfish(64, 6, 1, 3));
  nets.push_back(make_slim_fly(5, 1));
  for (const Network& net : nets) {
    mcf::SolveOptions opts;
    opts.epsilon = eps;
    for (const TrafficMatrix& tm :
         {longest_matching(net), longest_matching_greedy(net),
          random_matching(net, 1, 13)}) {
      const double thr = mcf::ThroughputEngine(net).solve(tm, opts).throughput;
      table.add_row({net.name, tm.name, Table::fmt(tm_path_length(net, tm), 1),
                     Table::fmt(thr, 4)});
    }
  }
  bench::emit(table,
              "Ablation: Hungarian vs greedy vs random matching as the "
              "near-worst-case TM (lower throughput = harder TM)");
  return 0;
}
