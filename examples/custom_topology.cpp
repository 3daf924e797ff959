// Evaluate a custom topology from an edge-list file — the workflow for
// users who want to benchmark their OWN design with the paper's method:
//
//   $ ./examples/custom_topology [file]
//
// With no file, a built-in example (a 12-switch two-cluster network with a
// deliberate bottleneck) is used. Reports throughput under A2A / LM, the
// near-worst-case TM itself, the sparse-cut upper bound, relative
// throughput vs same-equipment random graphs, and a DOT rendering.
//
// File format (see topo/io.h):
//   nodes N
//   servers <node> <count>
//   edge <u> <v> <capacity>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/evaluator.h"
#include "cuts/sparsest_cut.h"
#include "mcf/engine.h"
#include "tm/synthetic.h"
#include "topo/io.h"
#include "util/table.h"

namespace {

constexpr const char* kBuiltin = R"(# two 6-switch clusters, 2-link bridge
nodes 12
servers 0 1
servers 1 1
servers 2 1
servers 3 1
servers 4 1
servers 5 1
servers 6 1
servers 7 1
servers 8 1
servers 9 1
servers 10 1
servers 11 1
edge 0 1 1
edge 0 2 1
edge 1 2 1
edge 3 4 1
edge 3 5 1
edge 4 5 1
edge 0 3 1
edge 1 4 1
edge 2 5 1
edge 6 7 1
edge 6 8 1
edge 7 8 1
edge 9 10 1
edge 9 11 1
edge 10 11 1
edge 6 9 1
edge 7 10 1
edge 8 11 1
edge 2 6 1
edge 5 9 1
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace tb;
  Network net;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    net = read_edge_list(in, argv[1]);
  } else {
    net = parse_edge_list(kBuiltin, "builtin-two-cluster");
  }
  net.validate();
  std::cout << "Network: " << net.name << " (" << net.graph.num_nodes()
            << " switches, " << net.graph.num_edges() << " links, "
            << net.total_servers() << " servers)\n\n";

  mcf::SolveOptions opts;
  opts.epsilon = 0.03;
  const TrafficMatrix a2a = all_to_all(net);
  const TrafficMatrix lm = longest_matching(net);
  mcf::ThroughputEngine engine(net);
  const double t_a2a = engine.solve(a2a, opts).throughput;
  const double t_lm = engine.solve(lm, opts).throughput;
  const cuts::SparseCutSurvey cut = cuts::best_sparse_cut(net.graph, lm);

  RelativeOptions ropts;
  ropts.random_trials = 3;
  ropts.solve.epsilon = 0.04;
  const RelativeResult rel = relative_throughput(net, lm, ropts);

  Table table({"metric", "value"});
  table.add_row({"throughput A2A", Table::fmt(t_a2a)});
  table.add_row({"throughput LM (near-worst-case)", Table::fmt(t_lm)});
  table.add_row({"Theorem 2 lower bound", Table::fmt(t_a2a / 2.0)});
  table.add_row({"sparse-cut upper bound (LM)", Table::fmt(cut.best.sparsity)});
  table.add_row({"relative throughput vs random (LM)",
                 Table::fmt(rel.relative, 3)});
  table.print(std::cout);

  std::cout << "\nNear-worst-case (longest matching) flows:\n";
  for (const Demand& d : lm.demands) {
    std::cout << "  " << d.src << " -> " << d.dst << "\n";
  }
  std::cout << "\nDOT:\n" << to_dot(net);
  return 0;
}
