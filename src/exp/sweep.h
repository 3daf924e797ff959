// Declarative experiment sweeps. The paper's figures and tables are all
// grids of (topology instance, traffic-matrix family) cells evaluated with
// one solver configuration and a fixed number of random-graph trials; a
// Sweep describes such a grid and the Runner executes it (see runner.h for
// the seeding and caching contract).
//
// TopoSpec.build must be deterministic and its label must uniquely
// identify the returned instance — the label is the results/cache identity
// of the topology, so two specs with equal labels must build equal
// networks. The registry-backed builders below capture a fully constructed
// instance, which makes that trivially true.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/registry.h"
#include "mcf/engine.h"
#include "mcf/throughput.h"
#include "tm/traffic_matrix.h"
#include "topo/network.h"

namespace tb::exp {

/// Produces one topology instance. `label` is the stable identity used in
/// result rows and cache keys. Returning a shared pointer lets specs hand
/// out a single prebuilt instance without deep-copying the graph per call.
struct TopoSpec {
  std::string label;
  std::function<std::shared_ptr<const Network>()> build;
};

/// Produces a traffic matrix for a network. Randomized families (random
/// matchings) consume `seed`; deterministic ones ignore it.
struct TmSpec {
  std::string label;
  std::function<TrafficMatrix(const Network&, std::uint64_t seed)> build;
};

/// One point of a sweep's failure axis: a labeled degraded-network
/// scenario. The label is the row/cache identity of the scenario (like
/// TopoSpec labels, equal labels must mean equal specs); the spec's seed is
/// overridden per cell by the runner (see runner.h).
struct ScenarioPoint {
  std::string label;
  mcf::ScenarioSpec spec;
  int growth_step = -1;  ///< growth_step column value (-1: not a stage)
};

/// The grid: every topology crossed with every TM family (and, in failures
/// mode, every scenario — failures, surges and growth stages alike).
struct Sweep {
  std::vector<TopoSpec> topologies;
  std::vector<TmSpec> tms;
  mcf::SolveOptions solve;
  int trials = 0;              ///< 0: absolute throughput; >0: relative mode
                               ///< with this many same-equipment random
                               ///< graphs per cell
  std::uint64_t base_seed = 1; ///< root of all per-cell seed streams
  bool cut_bounds = false;     ///< fill the cut_bound/cut_gap/cut_method
                               ///< columns via core's cut_upper_bound
                               ///< (default CutBoundOptions, per-cell seed)
  /// Failures mode: when non-empty, the grid gains a scenario axis — each
  /// (topology, TM) pair is evaluated once per scenario as a failure group
  /// (one baseline, forked warm solves; see runner.h), filling the
  /// scenario / failed_links / throughput_drop / risk_group / tm_scale /
  /// growth_step columns (throughput is the degraded value, and a cut bound
  /// is priced on the degraded network). Requires absolute mode
  /// (trials == 0); the runner throws otherwise.
  std::vector<ScenarioPoint> scenarios;
};

/// One cell of the expanded grid: indices into the sweep's topology, TM,
/// and (failures mode) scenario lists plus the flat expansion index that
/// seeds the cell.
struct Cell {
  std::size_t index = 0;
  std::size_t topo = 0;
  std::size_t tm = 0;
  std::size_t scenario = 0;  ///< always 0 outside failures mode
};

/// Row-major (topology-major) expansion:
/// cell index = (topo * #tms + tm) * max(1, #scenarios) + scenario.
std::vector<Cell> expand(const Sweep& s);

// --- registry-backed builders -------------------------------------------

/// Wrap a prebuilt instance: the spec's label is the network's own name
/// (the label <-> instance contract holds by construction), and repeated
/// build() calls hand out the same shared instance.
TopoSpec instance_spec(Network net);

/// Specs for every ladder instance of `families` whose server count lies in
/// [min_servers, max_servers], in registry order. `seed` feeds randomized
/// constructions (Jellyfish, Long Hop), as in family_instances.
std::vector<TopoSpec> ladder_specs(const std::vector<Family>& families,
                                   int min_servers, int max_servers,
                                   std::uint64_t seed);

/// Spec for the ladder instance of `f` nearest `target_servers`.
TopoSpec representative_spec(Family f, int target_servers, std::uint64_t seed);

/// The paper's scaling experiment (Figs. 5/6, Table I): each family's size
/// ladder up to `max_servers` (TOPOBENCH_MAX_SERVERS overrides) under A2A,
/// RM(1) and LM, in relative mode with TOPOBENCH_TRIALS samples (default 2)
/// and a 10% default certified gap (TOPOBENCH_EPS tightens it).
Sweep relative_scaling_sweep(const std::vector<Family>& families,
                             int max_servers);

// --- traffic-matrix families --------------------------------------------

TmSpec a2a_tm();                      ///< all-to-all, label "A2A"
TmSpec random_matching_tm(int k);     ///< k matchings, label "RM(k)"
TmSpec longest_matching_tm();         ///< near-worst-case, label "LM"
TmSpec kodialam_tm_spec();            ///< LP-based near-worst-case,
                                      ///< label "Kodialam" (H^2 LP columns —
                                      ///< keep hosts <= ~200, see synthetic.h)

// --- failure-scenario grids ---------------------------------------------

/// Random link-failure scenarios, one per fraction: each fails
/// round(f * num_edges) sampled edges, labeled "fail(f=<f>)". The runner
/// derives each cell's sampling seed (see runner.h).
std::vector<ScenarioPoint> random_failure_scenarios(
    const std::vector<double>& fractions);

/// Uniform capacity degradation to `factor` of nominal on every link,
/// labeled "degrade(c=<factor>)". No links fail (failed_links == 0).
ScenarioPoint degrade_scenario(double factor);

/// Correlated shared-risk failure scenarios, one per fraction: each fails
/// round(f * num_groups) risk groups sampled on the group stream, labeled
/// "groups(f=<f>)". Requires networks exporting risk groups (every
/// registry instance does; see ensure_risk_groups).
std::vector<ScenarioPoint> correlated_group_scenarios(
    const std::vector<double>& fractions);

/// Uniform traffic surge: every demand scaled by `scale`, labeled
/// "surge(x=<scale>)". No links fail; capacities are untouched.
ScenarioPoint surge_scenario(double scale);

/// Incremental expansion (the Jellyfish growth story) as `steps` scenario
/// points: stage g installs the fraction 1/2 + (1/2) * g / (steps - 1) of
/// the switches (all of them at the final stage; see
/// ScenarioSpec::installed_fraction), failing the uninstalled node tail
/// with its demands dropped. Labeled "grow(step=<g>/<steps>)" with
/// growth_step g; early stages may be disconnected, which deterministically
/// reports throughput 0. The start fraction is fixed so the label is a full
/// identity. Throws std::invalid_argument when steps < 1.
std::vector<ScenarioPoint> growth_scenarios(int steps);

// --- environment knobs (shared by every driver) -------------------------
// Solver accuracy, trial counts and sweep sizes can be tightened from the
// environment without recompiling. Each loader below reads its variable
// through util/env's strict policy and is the one place its accepted range
// is stated: unset means the caller's `fallback`, and a malformed or
// out-of-range value throws std::invalid_argument naming the variable.
//   TOPOBENCH_EPS            — GK certified-gap target, in [0.0001, 0.3]
//                              (mcf::kMinEpsilon, mcf::kMaxEpsilon)
//   TOPOBENCH_TRIALS         — random-graph samples per data point,
//                              in [1, 100]
//   TOPOBENCH_TARGET_SERVERS — representative-instance size target,
//                              in [4, 1000000]
//   TOPOBENCH_MAX_SERVERS    — ladder upper cutoff, in [4, 1000000]
// The execution knobs enter through RunOptions::from_env (runner.h):
//   TOPOBENCH_SOLVER_THREADS — intra-solve worker threads (0 = shared
//                              pool, 1 = serial, N = dedicated pool;
//                              never changes values — see runner.h)
//   TOPOBENCH_SHARD=i/n      — evaluate only shard i of n of the flat cell
//                              grid and emit a mergeable slice (see
//                              shard.h)
//   TOPOBENCH_STORE=<path>   — on-disk result tier

double eps_knob(double fallback);
int trials_knob(int fallback);
int target_servers_knob(int fallback);
int max_servers_knob(int fallback);

}  // namespace tb::exp
