#include "core/evaluator.h"

#include <stdexcept>
#include <vector>

#include "cuts/bisection.h"
#include "mcf/engine.h"
#include "topo/jellyfish.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tb {

RelativeResult relative_throughput(const Network& net, const TrafficMatrix& tm,
                                   const RelativeOptions& opts) {
  if (opts.random_trials < 1) {
    throw std::invalid_argument("relative_throughput: trials >= 1");
  }
  RelativeResult res;
  {
    const mcf::ThroughputResult topo =
        mcf::ThroughputEngine(net).solve(tm, opts.solve);
    res.topo_throughput = topo.throughput;
    res.topo_stats = topo.stats;
  }

  // The random-graph trials are independent solves on the shared pool
  // (inline when the caller is itself a pool worker). Each trial derives
  // its seed from its index and writes only its own slot, and the summary
  // is reduced after the barrier, so the result is bit-identical for a
  // fixed seed regardless of thread count.
  std::vector<double> samples(static_cast<std::size_t>(opts.random_trials));
  const auto run_trial = [&](std::size_t trial) {
    const Network rnd = make_same_equipment_random(
        net, mix_seed(opts.seed, static_cast<std::uint64_t>(trial) + 1));
    samples[trial] =
        mcf::ThroughputEngine(rnd).solve(tm, opts.solve).throughput;
  };
  ThreadPool::shared().parallel_for(0, samples.size(), run_trial);
  res.random_throughput = summarize(samples);
  if (res.random_throughput.mean <= 0.0) {
    throw std::runtime_error("relative_throughput: random graph throughput 0");
  }
  res.relative = res.topo_throughput / res.random_throughput.mean;
  // First-order CI propagation of the denominator uncertainty.
  res.relative_ci95 =
      res.relative * res.random_throughput.ci95 / res.random_throughput.mean;
  return res;
}

CutBoundResult cut_upper_bound(const Graph& g, const TrafficMatrix& tm,
                               const CutBoundOptions& opts) {
  flow::FlowOptions fo;
  fo.threads = opts.solver_threads;
  const cuts::SparseCutSurvey survey = cuts::best_sparse_cut(
      g, tm, opts.brute_force_cap, opts.st_pairs, opts.seed, fo);
  CutBoundResult r;
  r.bound = survey.best.sparsity;
  r.method = survey.best.method;
  r.kind = survey.best.bound;
  r.flow_stats = survey.flow_stats;
  // The battery can miss a balanced cut that KL finds; a certified-exact
  // battery answer cannot be beaten (exact == the optimum over ALL cuts),
  // so skip the bisection work entirely in that case.
  if (opts.include_bisection && r.kind != cuts::CutBound::Exact) {
    const cuts::CutResult bis = cuts::bisection_sparsity(
        g, tm, /*exact_max=*/18, /*kl_restarts=*/8, opts.seed,
        /*st_pairs=*/4, fo);
    r.flow_stats.add(bis.flow_stats);
    if (bis.sparsity < r.bound) {
      r.bound = bis.sparsity;
      r.method = bis.method;
      // bis's Exact only certifies the optimum over *balanced* cuts; as a
      // bound on the sparsest cut it is still just an upper bound.
      r.kind = cuts::CutBound::Upper;
    }
  }
  return r;
}

}  // namespace tb
