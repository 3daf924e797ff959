// Ablation (paper §V): how much of a topology's throughput does the
// routing scheme leave on the table? The paper argues evaluations under
// restricted routing (single-path in [47]) measure the routing, not the
// topology; this bench quantifies that by comparing, per family under the
// longest-matching TM:
//   optimal LP flow  >=  ECMP  >=  single shortest path,   and VLB.
#include <iostream>
#include <string>

#include "bench_common.h"
#include "exp/sweep.h"
#include "core/registry.h"
#include "mcf/engine.h"
#include "mcf/routing.h"
#include "tm/synthetic.h"

int main() {
  using namespace tb;
  const double eps = exp::eps_knob(0.03);

  Table table({"topology", "servers", "optimal", "ECMP", "single-path", "VLB",
               "ECMP/opt", "SP/opt"});
  for (const Family f : all_families()) {
    const Network net = family_representative(f, 64, /*seed=*/1);
    const TrafficMatrix tm = longest_matching(net);
    mcf::SolveOptions opts;
    opts.epsilon = eps;
    const double opt = mcf::ThroughputEngine(net).solve(tm, opts).throughput;
    const double ecmp = mcf::ecmp_throughput(net.graph, tm).throughput;
    const double sp = mcf::single_path_throughput(net.graph, tm).throughput;
    const double vlb = mcf::vlb_throughput(net.graph, tm).throughput;
    table.add_row({family_name(f), std::to_string(net.total_servers()),
                   Table::fmt(opt, 3), Table::fmt(ecmp, 3), Table::fmt(sp, 3),
                   Table::fmt(vlb, 3), Table::fmt(ecmp / opt, 2),
                   Table::fmt(sp / opt, 2)});
  }
  bench::emit(table,
              "Ablation: routing-scheme gap under the LM TM (optimal vs ECMP "
              "vs single path vs VLB). 'optimal' is a certified (1-eps) "
              "lower bound, so scheme/opt can marginally exceed 1.");
  return 0;
}
