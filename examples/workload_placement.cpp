// Workload-placement study — the paper's §IV-B insight as a tool: when a
// rack-level TM is skewed, does randomizing rack placement help on your
// topology?
//
//   $ ./examples/workload_placement [shuffles]   (in [1, 1000])
//
// Builds the skewed frontend-style TM (TM-F synthetic), maps it onto each
// family "as measured" and under `shuffles` random placements, and reports
// the expected gain from randomization. Expanders and fat trees should
// show ~none (already robust); the structured families should benefit.
#include <iostream>
#include <string>
#include <vector>

#include "args.h"
#include "core/registry.h"
#include "mcf/engine.h"
#include "tm/facebook.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace tb;
  long shuffles = 3;
  if (argc > 2 ||
      (argc > 1 && !examples::parse_int(argv[1], 1, 1000, &shuffles))) {
    std::cerr << "usage: workload_placement [shuffles]  (integer in "
                 "[1, 1000], default 3)\n";
    return 2;
  }
  const int racks = 64;
  const std::vector<double> rack_tm = synth_tm_frontend(racks, /*seed=*/11);

  mcf::SolveOptions opts;
  opts.epsilon = 0.06;

  Table table({"topology", "as-placed", "shuffled(mean)", "gain"});
  for (const Family f : all_families()) {
    const Network net = family_representative(f, racks, /*seed=*/1);
    mcf::ThroughputEngine engine(net);
    const double base =
        engine.solve(map_rack_tm(net, rack_tm, racks, 0), opts).throughput;
    std::vector<double> shuffled;
    for (int s = 1; s <= shuffles; ++s) {
      const TrafficMatrix tm =
          map_rack_tm(net, rack_tm, racks, 700 + static_cast<std::uint64_t>(s));
      shuffled.push_back(engine.solve(tm, opts).throughput);
    }
    const double mean = mean_of(shuffled);
    table.add_row({family_name(f), Table::fmt(base, 3), Table::fmt(mean, 3),
                   Table::fmt(100.0 * (mean - base) / base, 1) + "%"});
  }
  table.print(std::cout,
              "Does randomizing rack placement help under a skewed TM?");
  return 0;
}
