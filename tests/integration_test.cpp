// End-to-end integration tests: the full pipelines the bench binaries run,
// at miniature scale, with result-shape assertions from the paper.
#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.h"
#include "core/registry.h"
#include "cuts/sparsest_cut.h"
#include "mcf/engine.h"
#include "mcf/paths.h"
#include "mcf/throughput.h"
#include "tm/facebook.h"
#include "tm/synthetic.h"
#include "topo/fattree.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "topo/theory_graphs.h"

namespace tb {
namespace {

TEST(Integration, RelativeThroughputPipelineIsDeterministic) {
  const Network net = family_representative(Family::Dragonfly, 64, 1);
  RelativeOptions opts;
  opts.random_trials = 2;
  opts.solve.epsilon = 0.05;
  opts.seed = 7;
  const RelativeResult a = relative_throughput(net, longest_matching(net), opts);
  const RelativeResult b = relative_throughput(net, longest_matching(net), opts);
  EXPECT_DOUBLE_EQ(a.relative, b.relative);
  EXPECT_DOUBLE_EQ(a.topo_throughput, b.topo_throughput);
}

TEST(Integration, FatTreeElephantAnomaly) {
  // Fig 10-12's core claim: with a few weight-10 elephants, the fat tree's
  // absolute throughput collapses by ~the weight ratio, while a same-size
  // random graph degrades much less.
  const Network ft = make_fat_tree(6);  // 54 servers, 45 switches
  const Network jf = make_same_equipment_random(ft, 3);
  mcf::SolveOptions opts;
  opts.epsilon = 0.05;

  const TrafficMatrix ft_base = longest_matching(ft);
  const TrafficMatrix jf_base = longest_matching(jf);
  mcf::ThroughputEngine ft_engine(ft);
  mcf::ThroughputEngine jf_engine(jf);
  const mcf::ThroughputResult ft_plain = ft_engine.solve(ft_base, opts);
  const mcf::ThroughputResult jf_plain = jf_engine.solve(jf_base, opts);
  const mcf::ThroughputResult ft_eleph =
      ft_engine.solve(with_elephants(ft_base, 0.05, 10.0, 5), opts);
  const mcf::ThroughputResult jf_eleph =
      jf_engine.solve(with_elephants(jf_base, 0.05, 10.0, 5), opts);

  // Fat tree: an elephant pins its ToR -> drop toward 1/10. Random graph:
  // non-local traffic shares every link -> much gentler drop. The exact
  // optima are fat tree 3.0 -> 0.3 and random graph 2.0 -> 0.3, so the
  // drop ratio is exactly 1.5 at the optimum and a point estimate may land
  // on either side of it. Compare the certified interval ends instead: the
  // fat tree's largest possible drop against the random graph's smallest.
  // Each result satisfies tp <= OPT <= ub <= (1+eps) tp, so
  //   ft_hi = ft_eleph.ub / ft_plain.tp <= (1+eps)^2 * ft_drop_opt,
  //   jf_lo = jf_eleph.tp / jf_plain.ub >= jf_drop_opt / (1+eps)^2,
  // and jf_lo / ft_hi >= 1.5 / (1+eps)^4 ~= 1.234 at eps = 0.05.
  const double ft_hi = ft_eleph.upper_bound / ft_plain.throughput;
  const double jf_lo = jf_eleph.throughput / jf_plain.upper_bound;
  EXPECT_LT(ft_hi, 0.25);
  EXPECT_GT(jf_lo, 1.2 * ft_hi);
}

TEST(Integration, ShufflingSkewedTmHelpsStructuredTopology) {
  // Fig 14's claim, miniaturized: on a hypercube, randomizing the skewed
  // TM-F placement does not hurt, and typically helps.
  const Network hc = make_hypercube(5);
  const std::vector<double> rack = synth_tm_frontend(32, 3);
  mcf::SolveOptions opts;
  opts.epsilon = 0.05;
  mcf::ThroughputEngine engine(hc);
  const double sampled =
      engine.solve(map_rack_tm(hc, rack, 32, 0), opts).throughput;
  double shuffled_best = 0.0;
  for (const std::uint64_t s : {11ULL, 12ULL, 13ULL}) {
    shuffled_best = std::max(
        shuffled_best,
        engine.solve(map_rack_tm(hc, rack, 32, s), opts).throughput);
  }
  EXPECT_GE(shuffled_best, sampled * 0.95);
}

TEST(Integration, TheoryGraphsCutThroughputInversion) {
  // §II-B / Theorem 1: the uniform sparsest cut (A2A demands, as in the
  // theorem) overstates graph B's worst-case (LM) throughput by a larger
  // factor than graph A's — cut-based selection favours the wrong graph.
  // B's separation grows with the subdivision length p.
  const Network a = make_clustered_random(24, 5, 1, 5);
  const Network b = make_subdivided_expander(12, 2, 5, 5);
  mcf::SolveOptions opts;
  opts.epsilon = 0.04;
  const auto ratio = [&](const Network& net) {
    const double thr = mcf::ThroughputEngine(net)
                           .solve(longest_matching(net), opts)
                           .throughput;
    const double cut =
        cuts::best_sparse_cut(net.graph, all_to_all(net)).best.sparsity;
    return cut / thr;
  };
  EXPECT_GT(ratio(b), ratio(a) * 1.3);
}

TEST(Integration, CountingEstimateBelowPathLpOnFatTree) {
  // Fig 15 comparisons 1 vs 2 in miniature.
  const Network ft = make_fat_tree(4);
  const TrafficMatrix tm = random_matching_servers(ft, 9);
  const auto sets = mcf::build_path_sets(ft.graph, tm, 4);
  const double lp = mcf::path_restricted_throughput(ft.graph, sets);
  const auto est = mcf::counting_throughput(ft.graph, sets);
  EXPECT_LE(est.minimum, lp * (1.0 + 1e-9));
}

TEST(Integration, FacebookPipelineEndToEnd) {
  // Registry -> representative -> rack TM -> relative throughput, for one
  // structured family and the expander baseline.
  const std::vector<double> rack = synth_tm_hadoop(64, 1);
  for (const Family f : {Family::Hypercube, Family::Jellyfish}) {
    const Network net = family_representative(f, 64, 1);
    const TrafficMatrix tm = map_rack_tm(net, rack, 64, 0);
    RelativeOptions opts;
    opts.random_trials = 2;
    opts.solve.epsilon = 0.06;
    const RelativeResult r = relative_throughput(net, tm, opts);
    EXPECT_GT(r.relative, 0.3) << family_name(f);
    EXPECT_LT(r.relative, 2.0) << family_name(f);
  }
}

TEST(Integration, ExpandersBeatStructuredAtEqualGearUnderLm) {
  // The paper's headline: at scale, expanders (Jellyfish et al.) beat
  // structured designs on the same equipment. Check hypercube vs its
  // same-equipment random graph under LM at 128 switches.
  const Network hc = make_hypercube(7);
  RelativeOptions opts;
  opts.random_trials = 3;
  opts.solve.epsilon = 0.06;
  const RelativeResult r = relative_throughput(hc, longest_matching(hc), opts);
  EXPECT_LT(r.relative, 0.9);  // paper Table I: 51% at its largest size
}

}  // namespace
}  // namespace tb
