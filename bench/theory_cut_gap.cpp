// The theory section's evidence (§II-B, Appendix A):
//
//  (1) Graph A (clustered random) vs Graph B (subdivided expander): B has
//      the LARGER (better-looking) sparsest cut yet the SMALLER worst-case
//      throughput — choosing by cuts picks the wrong network.
//  (2) The 5-ary 3-stage flattened butterfly: even in a small structured
//      network, exact throughput (paper: 0.565) sits strictly below the
//      sparsest cut (paper: 0.6) under the longest-matching TM.
#include <iostream>
#include <string>

#include "bench_common.h"
#include "exp/sweep.h"
#include "cuts/sparsest_cut.h"
#include "mcf/engine.h"
#include "mcf/throughput.h"
#include "tm/synthetic.h"
#include "topo/flattened_butterfly.h"
#include "topo/theory_graphs.h"

int main() {
  using namespace tb;
  const double eps = exp::eps_knob(0.03);

  {
    // Graph A: two 32-node clusters, alpha=6 within, beta=2 across.
    // Graph B: 4-regular expanders subdivided with p = 1 (plain expander),
    // 3 and 5 — the paper's knob that separates cut from throughput.
    // Per Theorem 1: the uniform sparsest cut (A2A demands) stays
    // Omega(1/np) while worst-case throughput falls as O(1/(np log n)), so
    // B's cut/throughput ratio grows with p; A's stays near 1 (its cut is
    // tight). Cut-based selection would increasingly favour the wrong
    // graph.
    Table table({"graph", "nodes", "throughput_LM", "uniform_sparse_cut",
                 "cut/throughput"});
    const auto add = [&](const Network& net) {
      mcf::SolveOptions opts;
      opts.epsilon = eps;
      const double thr = mcf::ThroughputEngine(net)
                             .solve(longest_matching(net), opts)
                             .throughput;
      const double cut =
          cuts::best_sparse_cut(net.graph, all_to_all(net)).best.sparsity;
      table.add_row({net.name, std::to_string(net.graph.num_nodes()),
                     Table::fmt(thr, 4), Table::fmt(cut, 4),
                     Table::fmt(cut / thr, 2)});
    };
    add(make_clustered_random(32, 6, 2, /*seed=*/5));
    for (const int p : {1, 3, 5}) {
      add(make_subdivided_expander(16, 2, p, /*seed=*/5));
    }
    bench::emit(table,
                "Theory: clustered random (A) vs subdivided expanders (B, "
                "growing p) — B's cut looks fine while its throughput "
                "collapses");
  }

  {
    // FBF(5,3): exact LP throughput vs exhaustive-ish sparse cut, A2A TM
    // (uniform sparsest cut) and LM TM.
    const Network fbf = make_flattened_butterfly(5, 3);
    Table table({"TM", "throughput_exactLP", "sparse_cut", "gap"});
    for (const TrafficMatrix& tm :
         {all_to_all(fbf), longest_matching(fbf)}) {
      const double thr = mcf::throughput_exact_lp(fbf.graph, tm).throughput;
      const cuts::SparseCutSurvey survey =
          cuts::best_sparse_cut(fbf.graph, tm, /*brute_force_cap=*/200'000);
      table.add_row({tm.name, Table::fmt(thr, 4),
                     Table::fmt(survey.best.sparsity, 4),
                     Table::fmt(survey.best.sparsity / thr, 3)});
    }
    bench::emit(table,
                "Theory: 5-ary 3-stage flattened butterfly — throughput is "
                "strictly below the sparsest cut (paper: 0.565 vs 0.6)");
  }
  return 0;
}
