// Head-to-head topology comparison at matched scale — a miniature of the
// paper's §IV evaluation:
//
//   $ ./examples/topology_comparison [target_servers]  (in [4, 100000])
//
// For every family's instance nearest the target size, prints throughput
// under A2A and longest matching, normalized by same-equipment random
// graphs (relative throughput), plus raw gear counts so the normalization
// is visible.
#include <iostream>
#include <string>

#include "args.h"
#include "core/evaluator.h"
#include "core/registry.h"
#include "tm/synthetic.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace tb;
  long target = 64;
  if (argc > 2 ||
      (argc > 1 && !examples::parse_int(argv[1], 4, 100'000, &target))) {
    std::cerr << "usage: topology_comparison [target_servers]  (integer in "
                 "[4, 100000], default 64)\n";
    return 2;
  }

  RelativeOptions opts;
  opts.random_trials = 2;
  opts.solve.epsilon = 0.06;

  Table table({"topology", "switches", "links", "servers", "rel_A2A",
               "rel_LM"});
  for (const Family f : all_families()) {
    const Network net =
        family_representative(f, static_cast<int>(target), /*seed=*/1);
    opts.seed = mix_seed(100, static_cast<std::uint64_t>(f));
    const double a2a = relative_throughput(net, all_to_all(net), opts).relative;
    const double lm =
        relative_throughput(net, longest_matching(net), opts).relative;
    table.add_row({family_name(f), std::to_string(net.graph.num_nodes()),
                   std::to_string(net.graph.num_edges()),
                   std::to_string(net.total_servers()), Table::fmt(a2a, 3),
                   Table::fmt(lm, 3)});
  }
  table.print(std::cout, "Relative throughput vs same-equipment random graph "
                         "(target ~" + std::to_string(target) + " servers)");
  std::cout << "\nrel = 1.0 means 'as good as a random graph built from the "
               "same gear' (the Jellyfish baseline).\n";
  return 0;
}
