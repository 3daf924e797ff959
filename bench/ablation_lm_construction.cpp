// Ablation of the longest-matching TM's construction (paper §II-C): the
// exact Hungarian max-weight matching vs a greedy matching vs a random
// matching. Reported per network: the matching's total path length (the
// objective) and the resulting throughput (lower = harder = better as a
// worst-case proxy).
//
// Runs on the experiment runner in absolute mode with fixed TMs (the
// random matching keeps its own seed): TOPOBENCH_CSV=1 emits the uniform
// cell CSV.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "graph/algorithms.h"
#include "tm/synthetic.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "topo/slimfly.h"
#include "util/table.h"

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
  const std::string caption =
      "Ablation: Hungarian vs greedy vs random matching as the "
      "near-worst-case TM (lower throughput = harder TM)";

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.05);
  sweep.base_seed = 13;
  sweep.topologies = {exp::instance_spec(make_hypercube(6)),
                      exp::instance_spec(make_jellyfish(64, 6, 1, 3)),
                      exp::instance_spec(make_slim_fly(5, 1))};
  sweep.tms = {exp::longest_matching_tm(),
               {"LM-greedy",
                [](const Network& net, std::uint64_t) {
                  return longest_matching_greedy(net);
                }},
               {"RM(1)", [](const Network& net, std::uint64_t) {
                  return random_matching(net, 1, /*seed=*/13);
                }}};

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"network", "TM", "total_path_len", "throughput"});
  for (const exp::TopoSpec& topo : sweep.topologies) {
    const std::shared_ptr<const Network> net = topo.build();
    for (const exp::TmSpec& spec : sweep.tms) {
      const TrafficMatrix tm = spec.build(*net, /*seed=*/0);
      table.add_row({topo.label, spec.label,
                     Table::fmt(tm_path_length(*net, tm), 1),
                     Table::fmt(rs.at(topo.label, spec.label).throughput, 4)});
    }
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
