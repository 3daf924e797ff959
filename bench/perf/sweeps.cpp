// The three exp::Runner workloads: ladder, cutgap and failures. Each is one
// sweep over registry instances; a round is one Runner::run of it with a
// fresh Runner (so no cell is an in-process cache hit), and rounds repeat
// until --seconds have passed.
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "cuts/bisection.h"
#include "cuts/exact_cuts.h"
#include "cuts/sparsest_cut.h"
#include "exp/runner.h"
#include "perf.h"
#include "util/rng.h"

namespace perf {
namespace {

using tb::Family;
using tb::Network;
using tb::TrafficMatrix;
using tb::exp::CellResult;
using tb::exp::ResultSet;
using tb::exp::TopoSpec;

/// Setup (registry builds) repeats this many times; setup_s is the median.
constexpr int kSetupReps = 5;

using Nets = std::map<std::string, std::shared_ptr<const Network>>;

struct SweepWorkload {
  std::string name;
  /// The instances of one family this workload sweeps.
  std::function<std::vector<TopoSpec>(Family)> build;
  std::vector<tb::exp::TmSpec> tms;
  std::vector<tb::exp::ScenarioPoint> scenarios;
  bool cut_bounds = false;
  double eps = 0.1;
};

/// One Runner::run of the workload's sweep.
struct Batch {
  std::uint64_t base_seed = 0;
  double seconds = 0.0;
  ResultSet rs;
};

Batch run_batch(const SweepWorkload& w, const std::vector<TopoSpec>& topos,
                std::uint64_t base_seed, std::size_t* misses = nullptr) {
  tb::exp::Sweep s;
  s.topologies = topos;
  s.tms = w.tms;
  s.scenarios = w.scenarios;
  s.cut_bounds = w.cut_bounds;
  s.solve.epsilon = w.eps;
  s.base_seed = base_seed;
  tb::exp::Runner runner;
  Batch b;
  b.base_seed = base_seed;
  const tb::Timer t;
  b.rs = runner.run(s, tb::exp::RunOptions{});
  b.seconds = t.seconds();
  if (misses != nullptr) *misses += runner.cache_stats().misses;
  return b;
}

/// The TM a runner cell routed, rebuilt from the seeding contract of
/// exp/runner.h: cell stream mix_seed(base, cell), then stream 0; a failure
/// cell uses its (topology, TM) group's scenario-0 cell.
TrafficMatrix cell_tm(const SweepWorkload& w, const Network& net,
                      std::uint64_t base_seed, std::size_t cell) {
  const std::size_t per = std::max<std::size_t>(1, w.scenarios.size());
  const std::size_t floor = cell / per * per;
  const std::size_t tm = floor / per % w.tms.size();
  return w.tms[tm].build(net, tb::mix_seed(tb::mix_seed(base_seed, floor), 0));
}

/// The correctness checks of one batch; returns the number of failed cells.
long check_batch(const SweepWorkload& w, const Batch& b, const Nets& nets,
                 Report& report) {
  const bool failures = !w.scenarios.empty();
  std::map<std::string, double> a2a;  // topology -> A2A throughput
  for (const CellResult& r : b.rs.rows()) {
    if (r.tm == "A2A") a2a[r.topology] = r.throughput;
  }
  long failed = 0;
  for (const CellResult& r : b.rs.rows()) {
    const std::string where = w.name + " cell " + std::to_string(r.cell) +
                              " " + r.topology + " " + r.tm + " " + r.scenario;
    const Network& net = *nets.at(r.topology);
    const TrafficMatrix tm = cell_tm(w, net, b.base_seed, r.cell);
    const bool disconnected =
        failures && r.failed_links > 0 && r.throughput == 0.0;
    bool ok = report.expect(std::isfinite(r.throughput) &&
                                (r.throughput > 0.0 || disconnected),
                            where + ": throughput not finite and > 0");
    ok &= report.expect(
        r.throughput <= volumetric_bound(net, tm) * (1.0 + 1e-9),
        where + ": throughput above the volumetric bound");
    if (!failures) {
      const auto it = a2a.find(r.topology);
      ok &= report.expect(
          it != a2a.end() &&
              theorem2_holds(r.throughput, hose_scale(tm), it->second, w.eps),
          where + ": below (1-eps) T_A2A/2 (Theorem 2)");
    }
    if (w.cut_bounds) {
      ok &= report.expect(r.throughput <= r.cut_bound * (1.0 + 1e-9),
                          where + ": throughput above its cut bound");
    }
    if (failures) {
      ok &= report.expect(disconnected ? r.throughput_drop == 1.0
                                       : r.throughput_drop >= -2.0 * w.eps &&
                                             r.throughput_drop <= 1.0,
                          where + ": drop outside [-2 eps, 1]");
    }
    if (!ok) ++failed;
  }
  return failed;
}

Nets instances(const std::vector<TopoSpec>& topos) {
  Nets nets;
  for (const TopoSpec& t : topos) nets[t.label] = t.build();
  return nets;
}

void run_untraced(const SweepWorkload& w, const Options& opts,
                  Report& report) {
  std::vector<double> setup;
  std::vector<TopoSpec> topos;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const tb::Timer t;
    topos.clear();
    for (const Family f : tb::all_families()) {
      for (TopoSpec& spec : w.build(f)) topos.push_back(std::move(spec));
    }
    setup.push_back(t.seconds());
  }
  const Nets nets = instances(topos);

  // Timed phase: whole rounds until --seconds have passed; round k runs
  // with base seed mix_seed(seed, k).
  std::vector<Batch> batches;
  const tb::Timer wall;
  do {
    batches.push_back(
        run_batch(w, topos, tb::mix_seed(opts.seed, batches.size())));
  } while (wall.seconds() < opts.seconds);

  std::vector<double> latency;
  std::vector<double> rate;
  for (const Batch& b : batches) {
    latency.push_back(b.seconds);
    rate.push_back(static_cast<double>(b.rs.size()) / b.seconds);
    report.attempted += static_cast<long>(b.rs.size());
    report.failed += check_batch(w, b, nets, report);
  }
  report.note("csv_hash " + w.name + " " + fnv1a_hex(batches[0].rs.to_csv()));
  report.note("rounds " + std::to_string(batches.size()));
  end_to_end(report, setup, rate, latency, peak_rss_mb("self"));
}

// --- traced walk -------------------------------------------------------------

/// What the walk computed for one cell, for the walk-vs-runner cross-check.
struct Walked {
  double throughput = std::numeric_limits<double>::quiet_NaN();
  double cut_bound = std::numeric_limits<double>::quiet_NaN();
  double drop = std::numeric_limits<double>::quiet_NaN();
};

/// core's cut_upper_bound, one estimator per span: the sparse-cut battery
/// of best_sparse_cut, then the bisection unless the battery certified the
/// optimum. Runs serially (one flow thread), like a runner cell.
double traced_cut_bound(Tracer& tracer, WalkCounters& wc, const Network& net,
                        const TrafficMatrix& tm, std::uint64_t seed) {
  const tb::CutBoundOptions cb;
  tb::flow::FlowOptions fo;
  fo.threads = 1;
  const tb::Graph& g = net.graph;
  double bound = std::numeric_limits<double>::infinity();
  bool certified = false;
  const auto take = [&](const tb::cuts::CutResult& r) {
    wc.flow.add(r.flow_stats);
    if (r.sparsity < bound) bound = r.sparsity;
    if (r.bound == tb::cuts::CutBound::Exact) certified = true;
  };
  {
    const Scope battery(tracer, "cuts.battery");
    {
      const Scope s(tracer, "cuts.brute_force");
      take(tb::cuts::sparsest_cut_brute_force(g, tm, cb.brute_force_cap));
    }
    {
      const Scope s(tracer, "cuts.one_node");
      take(tb::cuts::sparsest_cut_one_node(g, tm));
    }
    {
      const Scope s(tracer, "cuts.two_node");
      take(tb::cuts::sparsest_cut_two_node(g, tm));
    }
    {
      const Scope s(tracer, "cuts.expanding");
      take(tb::cuts::sparsest_cut_expanding(g, tm));
    }
    {
      const Scope s(tracer, "cuts.eigenvector");
      take(tb::cuts::sparsest_cut_eigenvector(g, tm));
    }
    {
      const Scope s(tracer, "flow.st_mincut");
      take(tb::cuts::sparsest_cut_st_mincut(g, tm, cb.st_pairs, seed, fo));
    }
  }
  if (cb.include_bisection && !certified) {
    const Scope s(tracer, "cuts.bisection");
    const tb::cuts::CutResult bis = tb::cuts::bisection_sparsity(
        g, tm, /*exact_max=*/18, /*kl_restarts=*/8, seed, /*st_pairs=*/4, fo);
    wc.flow.add(bis.flow_stats);
    if (bis.sparsity < bound) bound = bis.sparsity;
  }
  return bound;
}

/// Walk the grid cell by cell with the runner's seed streams. Solves run
/// serially (solver_threads = 1), as they do on a runner worker; by the
/// solver determinism contracts the values are the same bits.
std::vector<Walked> walk(Tracer& tracer, WalkCounters& wc,
                         const SweepWorkload& w,
                         const std::vector<TopoSpec>& topos, const Nets& nets,
                         std::uint64_t base_seed) {
  tb::mcf::SolveOptions so;
  so.epsilon = w.eps;
  so.solver_threads = 1;
  const std::size_t per = std::max<std::size_t>(1, w.scenarios.size());
  std::vector<Walked> out(topos.size() * w.tms.size() * per);
  for (std::size_t t = 0; t < topos.size(); ++t) {
    const Network& net = *nets.at(topos[t].label);
    for (std::size_t m = 0; m < w.tms.size(); ++m) {
      const std::size_t floor = (t * w.tms.size() + m) * per;
      if (w.scenarios.empty()) {
        const std::uint64_t cell_seed = tb::mix_seed(base_seed, floor);
        const Scope cell(tracer, "exp.cell",
                         {op_id('c', floor), topos[t].label, w.tms[m].label,
                          ""});
        const TrafficMatrix tm =
            traced_tm(tracer, w.tms[m], net, tb::mix_seed(cell_seed, 0));
        const auto engine = traced_engine(tracer, net);
        out[floor].throughput =
            traced_solve(tracer, wc, *engine, tm, so, false).throughput;
        if (w.cut_bounds) {
          // Runner: the cut sampler draws from stream trials + 1 = 1.
          out[floor].cut_bound = traced_cut_bound(tracer, wc, net, tm,
                                                  tb::mix_seed(cell_seed, 1));
        }
        ++wc.ops;
        continue;
      }
      // A ScenarioFleet batch, step by step: one cold baseline, then per
      // scenario a fork of the intact session, apply, warm solve, clear.
      const Scope group(tracer, "exp.group",
                        {op_id('g', floor), topos[t].label, w.tms[m].label,
                         ""});
      const TrafficMatrix tm =
          traced_tm(tracer, w.tms[m], net,
                    tb::mix_seed(tb::mix_seed(base_seed, floor), 0));
      const auto base = traced_engine(tracer, net);
      const double baseline =
          traced_solve(tracer, wc, *base, tm, so, false).throughput;
      for (std::size_t s = 0; s < per; ++s) {
        const std::size_t index = floor + s;
        const Scope cell(tracer, "exp.scenario",
                         {op_id('c', index), topos[t].label, w.tms[m].label,
                          w.scenarios[s].label});
        tb::mcf::ScenarioSpec spec = w.scenarios[s].spec;
        // Runner: the failure sampler draws from stream trials + 2 = 2.
        spec.seed = tb::mix_seed(tb::mix_seed(base_seed, index), 2);
        std::unique_ptr<tb::mcf::ThroughputEngine> worker;
        {
          const Scope apply(tracer, "mcf.scenario_apply");
          worker = base->fork_session();
          worker->apply_scenario(spec);
        }
        const double degraded =
            traced_solve(tracer, wc, *worker, tm, so, true).throughput;
        {
          const Scope clear(tracer, "mcf.scenario_clear");
          worker->clear_scenario();
        }
        out[index].throughput = degraded;
        out[index].drop = baseline > 0.0 ? 1.0 - degraded / baseline : 0.0;
        ++wc.ops;
      }
    }
  }
  return out;
}

void run_traced(const SweepWorkload& w, const Options& opts, Report& report) {
  const std::uint64_t base_seed = tb::mix_seed(opts.seed, 0);  // round 0
  Tracer tracer;
  WalkCounters wc;
  const int root = tracer.open("trace.walk", {});
  std::vector<TopoSpec> topos;
  for (const Family f : tb::all_families()) {
    const Scope s(tracer, "topo.build", {"", tb::family_name(f), "", ""});
    for (TopoSpec& t : w.build(f)) topos.push_back(std::move(t));
  }
  const Nets nets = instances(topos);
  const std::vector<Walked> walked =
      walk(tracer, wc, w, topos, nets, base_seed);
  tracer.close(root);

  // The same round through the runner, untraced: its wall time is the
  // overlap denominator and its CSV the cross-check reference.
  std::size_t misses = 0;
  const Batch b = run_batch(w, topos, base_seed, &misses);
  wc.untraced_wall_s = b.seconds;
  wc.misses = static_cast<long>(misses);
  report.note("csv_hash " + w.name + " " + fnv1a_hex(b.rs.to_csv()));
  report.failed += check_batch(w, b, nets, report);
  for (const CellResult& r : b.rs.rows()) {
    const Walked& x = walked[r.cell];
    const std::string where = w.name + " cell " + std::to_string(r.cell) +
                              " " + r.topology + " " + r.tm + " " + r.scenario;
    bool ok = report.expect(same_bits(x.throughput, r.throughput),
                            where + ": walk throughput differs from runner");
    if (w.cut_bounds) {
      ok &= report.expect(same_bits(x.cut_bound, r.cut_bound),
                          where + ": min over estimators != cut_bound");
    }
    if (!w.scenarios.empty()) {
      ok &= report.expect(same_bits(x.drop, r.throughput_drop),
                          where + ": walk drop differs from runner");
    }
    if (!ok) ++report.failed;
  }
  report.attempted = wc.ops;
  finish_trace(tracer, root, wc, opts, report);
}

void run_sweep_workload(const SweepWorkload& w, const Options& opts,
                        Report& report) {
  if (opts.trace) {
    run_traced(w, opts, report);
  } else {
    run_untraced(w, opts, report);
  }
}

std::vector<TopoSpec> representative(Family f) {
  return {tb::exp::representative_spec(f, 64, kRegistrySeed)};
}

}  // namespace

void run_ladder(const Options& opts, Report& report) {
  SweepWorkload w;
  w.name = "ladder";
  w.build = representative;
  w.tms = {tb::exp::a2a_tm(), tb::exp::random_matching_tm(5),
           tb::exp::random_matching_tm(1), tb::exp::longest_matching_tm()};
  run_sweep_workload(w, opts, report);
}

void run_cutgap(const Options& opts, Report& report) {
  SweepWorkload w;
  w.name = "cutgap";
  w.build = [](Family f) {
    std::vector<TopoSpec> specs;
    for (TopoSpec& t : tb::exp::ladder_specs({f}, 4, 48, kRegistrySeed)) {
      // Its three ExactLP cells take 7-12 s each, longer than a whole run.
      if (t.label != "DCell(n=5,l=1)") specs.push_back(std::move(t));
    }
    return specs;
  };
  w.tms = {tb::exp::a2a_tm(), tb::exp::random_matching_tm(1),
           tb::exp::longest_matching_tm()};
  w.cut_bounds = true;
  w.eps = 0.05;
  run_sweep_workload(w, opts, report);
}

void run_failures(const Options& opts, Report& report) {
  SweepWorkload w;
  w.name = "failures";
  w.build = representative;
  w.tms = {tb::exp::a2a_tm(), tb::exp::random_matching_tm(1)};
  // Both failure models on one scenario axis: independent links (fail,
  // degrade) and correlated groups (groups, surge) share each baseline.
  w.scenarios = tb::exp::random_failure_scenarios({0.02, 0.05, 0.10});
  w.scenarios.push_back(tb::exp::degrade_scenario(0.5));
  for (tb::exp::ScenarioPoint& p :
       tb::exp::correlated_group_scenarios({0.02, 0.05, 0.10})) {
    w.scenarios.push_back(std::move(p));
  }
  w.scenarios.push_back(tb::exp::surge_scenario(1.25));
  run_sweep_workload(w, opts, report);
}

}  // namespace perf
