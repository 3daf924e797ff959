#include "exp/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "store/result_store.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tb::exp {
namespace {

/// Exact solver + cut-bound configuration for cache identity: every field
/// that can change a result (kind, full-precision epsilon, and the
/// cut-bound knobs — the cut sampler's seed is derived from the cell, so
/// the option-struct seed is excluded). The two Auto-dispatch constants
/// fill the `s`/`z` slots: persisted store keys and slice fingerprints
/// depend on these exact bytes. Thread settings are deliberately
/// excluded — results are scheduling-invariant by contract, and keying on
/// them would miss between serial and parallel runs of the same
/// configuration. Scenario identity is the per-cell scenario label
/// (trusted like topology labels), carried in the cache key itself.
std::string config_fingerprint(const Sweep& s) {
  const mcf::SolveOptions& o = s.solve;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "k%d|e%.17g|s%d|z%ld",
                static_cast<int>(o.kind), o.epsilon, mcf::kExactMaxSwitches,
                mcf::kExactMaxLpSize);
  std::string key = buf;
  if (s.cut_bounds) {
    // The runner prices cuts with the default knobs; they stay in the key so
    // persisted store keys and slice fingerprints keep their bytes.
    const CutBoundOptions c;
    std::snprintf(buf, sizeof(buf), "|cb|f%ld|q%d|b%d", c.brute_force_cap,
                  c.st_pairs, c.include_bisection ? 1 : 0);
    key += buf;
  }
  if (!s.scenarios.empty()) {
    // A failure cell's TM comes from its group's scenario-0 cell stream,
    // so its result depends on the scenario-axis shape (count and
    // ordinals), not just its own scenario label: two sweeps can place the
    // same label at the same flat index inside differently shaped axes.
    // Fold the ordered scenario label list into the configuration
    // identity.
    key += "|fleet";
    for (const ScenarioPoint& p : s.scenarios) {
      key += '\x1f';
      key += p.label;
    }
  }
  return key;
}

std::string cache_key(const std::string& topo, const std::string& tm,
                      const std::string& scenario, std::uint64_t seed,
                      const Sweep& sweep) {
  // \x1f (unit separator) cannot occur in labels built from names.
  return topo + '\x1f' + tm + '\x1f' + scenario + '\x1f' +
         std::to_string(seed) + '\x1f' + config_fingerprint(sweep) + '\x1f' +
         std::to_string(sweep.trials);
}

std::string scenario_label_of(const Sweep& sweep, const Cell& c) {
  return sweep.scenarios.empty() ? std::string()
                                 : sweep.scenarios[c.scenario].label;
}

void validate_modes(const Sweep& sweep) {
  if (!sweep.scenarios.empty()) {
    if (sweep.trials > 0) {
      throw std::invalid_argument(
          "Runner::run: failures mode requires absolute mode (trials == 0)");
    }
    for (const ScenarioPoint& p : sweep.scenarios) {
      if (p.label.empty()) {
        throw std::invalid_argument("Runner::run: scenario label empty");
      }
    }
  }
}

}  // namespace

std::string cell_result_key(const Sweep& sweep, const Cell& cell) {
  return cache_key(sweep.topologies[cell.topo].label, sweep.tms[cell.tm].label,
                   scenario_label_of(sweep, cell),
                   mix_seed(sweep.base_seed, cell.index), sweep);
}

RunOptions RunOptions::from_env() {
  RunOptions opts;
  opts.shard = env_shard();
  opts.solver_threads = env::int_knob("TOPOBENCH_SOLVER_THREADS", 0, 0, 512);
  if (const std::optional<std::string> path = env::raw("TOPOBENCH_STORE")) {
    opts.store = std::make_shared<store::ResultStore>(
        *path, store::ResultStore::Mode::ReadWrite);
  }
  return opts;
}

std::string solver_label(const mcf::SolveOptions& opts) {
  char eps[24];
  std::snprintf(eps, sizeof(eps), "%g", opts.epsilon);
  switch (opts.kind) {
    case mcf::SolverKind::ExactLP:
      return "exact-lp";
    case mcf::SolverKind::GargKonemann:
      return std::string("gk(eps=") + eps + ")";
    case mcf::SolverKind::Auto:
      return std::string("auto(eps=") + eps + ")";
  }
  return "?";
}

namespace {

/// Shared CellResult scaffolding of a cell: its identity columns.
void fill_cell_identity(CellResult& r, const Sweep& sweep,
                        std::size_t cell_index, const std::string& topo_label,
                        const Network& net, const std::string& tm_label) {
  r.cell = cell_index;
  // The spec label, not net.name: the label is the identity rows and cache
  // keys agree on, and caller-authored specs may name instances freely.
  r.topology = topo_label;
  r.servers = net.total_servers();
  r.switches = net.graph.num_nodes();
  r.tm = tm_label;
  r.seed = mix_seed(sweep.base_seed, cell_index);
  r.solver = solver_label(sweep.solve);
  // The sweep's requested configuration, never the execution-time merge
  // with RunOptions::solver_threads: TOPOBENCH_SOLVER_THREADS (like
  // TOPOBENCH_THREADS) is a pure execution knob, and the determinism
  // entries require it to move no CSV byte. Recording the request also
  // keeps stored bytes identical across env settings (ResultStore::put
  // throws on a byte mismatch for the same key).
  r.solver_threads = sweep.solve.solver_threads;
}

void record_stats(CellResult& r, const mcf::SolverStats& s) {
  r.pivots = s.pivots;
  r.phases = s.phases;
  r.dijkstras = s.dijkstras;
  r.warm = s.warm_start ? 1 : 0;
}

/// The cut columns of a cell whose throughput is set, priced on the
/// instance the cell solved: (g, tm). The cut sampler draws from the stream
/// after the last random-graph trial, so enabling cut bounds perturbs no
/// existing column.
void fill_cut_columns(CellResult& r, const Graph& g, const TrafficMatrix& tm,
                      int solver_threads) {
  CutBoundOptions cb;
  cb.seed = mix_seed(r.seed, static_cast<std::uint64_t>(r.trials) + 1);
  // The cut estimators follow the solve's thread count. Never
  // result-bearing (the battery is thread-invariant), so the fingerprint
  // ignores it.
  cb.solver_threads = solver_threads;
  const CutBoundResult cut = cut_upper_bound(g, tm, cb);
  r.pushes = cut.flow_stats.pushes;
  r.relabels = cut.flow_stats.relabels;
  r.global_relabels = cut.flow_stats.global_relabels;
  r.cut_bound = cut.bound;
  r.cut_gap = r.throughput > 0.0 ? cut.bound / r.throughput
                                 : std::numeric_limits<double>::quiet_NaN();
  r.cut_method =
      cut.method + '(' + std::string(cuts::to_string(cut.kind)) + ')';
}

}  // namespace

CellResult Runner::eval_cell(const Sweep& sweep,
                             const mcf::SolveOptions& solve,
                             const std::string& topo_label, const Network& net,
                             const TmSpec& tm_spec,
                             std::size_t cell_index) const {
  CellResult r;
  fill_cell_identity(r, sweep, cell_index, topo_label, net, tm_spec.label);
  const std::uint64_t cell_seed = r.seed;
  const TrafficMatrix tm = tm_spec.build(net, mix_seed(cell_seed, 0));
  if (sweep.trials <= 0) {
    r.trials = 0;
    const mcf::ThroughputResult t =
        mcf::ThroughputEngine(net).solve(tm, solve);
    r.throughput = t.throughput;
    record_stats(r, t.stats);
  } else {
    r.trials = sweep.trials;
    RelativeOptions ropts;
    ropts.random_trials = sweep.trials;
    ropts.seed = cell_seed;  // trial t samples mix_seed(base, cell, t)
    ropts.solve = solve;
    const RelativeResult rel = relative_throughput(net, tm, ropts);
    r.throughput = rel.topo_throughput;
    r.random_mean = rel.random_throughput.mean;
    r.random_ci95 = rel.random_throughput.ci95;
    r.relative = rel.relative;
    r.relative_ci95 = rel.relative_ci95;
    record_stats(r, rel.topo_stats);
  }
  if (sweep.cut_bounds) {
    fill_cut_columns(r, net.graph, tm, solve.solver_threads);
  }
  return r;
}

void Runner::eval_failure_group(const Sweep& sweep,
                                const mcf::SolveOptions& solve,
                                const std::string& topo_label,
                                const Network& net, const TmSpec& tm_spec,
                                std::span<const std::size_t> cell_indices,
                                std::vector<CellResult>& out) const {
  const std::size_t num_scenarios = sweep.scenarios.size();
  // The group's TM comes from its scenario-0 cell stream so every scenario
  // of the group degrades the same instance (see the header contract); the
  // flat expansion is scenario-minor, so that cell is the group's floor.
  const std::size_t first_index =
      (cell_indices.front() / num_scenarios) * num_scenarios;
  const TrafficMatrix tm = tm_spec.build(
      net, mix_seed(mix_seed(sweep.base_seed, first_index), 0));
  // One cold baseline per group; it is bitwise the cold solve a fresh
  // engine would compute for this TM.
  mcf::ThroughputEngine base(net);
  const double baseline = base.solve(tm, solve).throughput;
  // Each scenario gets a fresh fork of the intact baseline session, so its
  // warm degraded solve seeds exactly as a one-at-a-time evaluation on a
  // fresh engine would (cold solve, apply_scenario, warm_solve): cells are
  // independent, which makes the group order-, shape- and thread-invariant.
  const auto eval_one = [&](std::size_t k) {
    const std::size_t index = cell_indices[k];
    const ScenarioPoint& point = sweep.scenarios[index % num_scenarios];
    // Per-cell failure sampling: each scenario keeps drawing from its own
    // cell's stream after the cut sampler's (trials + 2), so the group
    // shape never leaks into the sampled failure sets.
    mcf::ScenarioSpec spec = point.spec;
    spec.seed = mix_seed(mix_seed(sweep.base_seed, index),
                         static_cast<std::uint64_t>(sweep.trials) + 2);
    const std::unique_ptr<mcf::ThroughputEngine> worker = base.fork_session();
    worker->apply_scenario(spec);
    const mcf::ThroughputResult t = worker->warm_solve(tm, solve);
    CellResult& r = out[index];
    fill_cell_identity(r, sweep, index, topo_label, net, tm_spec.label);
    r.trials = 0;
    r.scenario = point.label;
    r.throughput = t.throughput;
    r.failed_links = worker->failed_edge_count();
    // 1 - degraded/baseline: usually in [0, 1], but the GK certified gap
    // can make it marginally negative on easy instances.
    r.throughput_drop = baseline > 0.0 ? 1.0 - t.throughput / baseline : 0.0;
    // Structured-scenario columns: failure cells record their actual values
    // (0 failed groups and tm_scale 1 are legitimate data, unlike the NA
    // sentinels other cells keep).
    r.risk_group = worker->failed_group_count();
    r.tm_scale = spec.tm_scale;
    r.growth_step = point.growth_step;
    record_stats(r, t.stats);
    if (sweep.cut_bounds) {
      fill_cut_columns(r, worker->surviving_graph(), worker->scenario_tm(tm),
                       solve.solver_threads);
    }
  };
  // parallel_ gates the per-scenario fan-out as well as the group fan-out
  // in run_impl: a cell-serial runner keeps every cell on the calling
  // thread (the solvers still honor solve.solver_threads independently).
  // Under a parallel group fan-out this parallel_for runs inline on the
  // pool worker; a run with a single group spreads its scenarios instead.
  if (parallel_) {
    ThreadPool::shared().parallel_for(0, cell_indices.size(), eval_one);
  } else {
    for (std::size_t k = 0; k < cell_indices.size(); ++k) eval_one(k);
  }
}

ResultSet Runner::run(const Sweep& sweep, const RunOptions& opts) {
  if (opts.shard) {
    if (!opts.shard->valid()) {
      throw std::invalid_argument("Runner::run: invalid shard spec " +
                                  std::to_string(opts.shard->index) + "/" +
                                  std::to_string(opts.shard->count) +
                                  " (need 0 <= i < n)");
    }
    return run_impl(sweep, opts, *opts.shard, /*slice=*/true);
  }
  return run_impl(sweep, opts, ShardSpec{}, /*slice=*/false);
}

ResultSet Runner::run_impl(const Sweep& sweep, const RunOptions& opts,
                           const ShardSpec& shard, bool slice) {
  if (sweep.topologies.empty() || sweep.tms.empty()) {
    throw std::invalid_argument("Runner::run: empty sweep");
  }
  validate_modes(sweep);
  const std::vector<Cell> cells = expand(sweep);
  // The shard's contiguous slice of the flat grid. Every structure below
  // keeps using *global* cell indices (seeds, cache keys, failure group
  // floors), which is what makes a shard's rows bitwise the corresponding
  // rows of the unsharded run.
  const CellRange range = shard_range(cells.size(), shard);
  // RunOptions::solver_threads seeds the intra-solve threading knob when
  // the sweep leaves it at 0; never part of cache identity (results are
  // thread-invariant by the solver determinism contracts) and never
  // recorded — fill_cell_identity echoes sweep.solve in the column.
  mcf::SolveOptions solve = sweep.solve;
  if (solve.solver_threads == 0) {
    solve.solver_threads = opts.solver_threads;
  }
  store::ResultStore* store = opts.store.get();

  std::vector<CellResult> out(cells.size());
  std::vector<std::size_t> misses;  // cell indices needing evaluation
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Tiered probe: memory first, then the on-disk store (a disk hit is
    // copied into the memory cache so the next probe is free). The store
    // is only touched under mutex_ — ResultStore is not thread-safe.
    const auto probe = [&](const Cell& c) -> const CellResult* {
      const std::string key = cell_result_key(sweep, c);
      const auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++stats_.hits;
        ++stats_.memory_hits;
        return &it->second;
      }
      if (store != nullptr) {
        if (std::optional<CellResult> r = store->get(key)) {
          ++stats_.hits;
          ++stats_.disk_hits;
          return &cache_.emplace(key, std::move(*r)).first->second;
        }
      }
      return nullptr;
    };
    for (std::size_t index = range.lo; index < range.hi; ++index) {
      const Cell& c = cells[index];
      if (const CellResult* hit = probe(c)) {
        out[c.index] = *hit;
        out[c.index].cell = c.index;
        // The column echoes the *sweep-requested* configuration
        // (results.h); the cached row may have been computed under a
        // different one.
        out[c.index].solver_threads = sweep.solve.solver_threads;
      } else {
        misses.push_back(c.index);
      }
    }
  }

  // Build only the topologies that still have cells to evaluate (a fully
  // cached re-run pays no build cost); cells of a topology share the
  // instance.
  std::vector<std::shared_ptr<const Network>> nets(sweep.topologies.size());
  for (const std::size_t index : misses) {
    const Cell& c = cells[index];
    if (!nets[c.topo]) nets[c.topo] = sweep.topologies[c.topo].build();
  }

  // Evaluation units: the missing cells of one (topology, TM) pair form a
  // failure group (a shared baseline + per-scenario degraded solves) in
  // failures mode; otherwise every cell is its own unit. Units are
  // consecutive runs of `misses` with equal keys and run concurrently —
  // nested solver parallelism inlines on pool workers — each writing only
  // its own cells' slots. Per-unit results are independent of
  // scheduling and cache state, so everything below the barrier is a
  // deterministic reduction in cell order.
  const bool failures = !sweep.scenarios.empty();
  const auto unit_key = [&](std::size_t index) {
    const Cell& c = cells[index];
    return failures ? c.topo * sweep.tms.size() + c.tm : c.index;
  };
  std::vector<std::span<const std::size_t>> units;
  for (std::size_t k = 0; k < misses.size();) {
    std::size_t end = k + 1;
    while (end < misses.size() &&
           unit_key(misses[end]) == unit_key(misses[k])) {
      ++end;
    }
    units.emplace_back(misses.data() + k, end - k);
    k = end;
  }
  const auto eval_unit = [&](std::size_t u) {
    const std::span<const std::size_t> unit = units[u];
    const Cell& head = cells[unit.front()];
    const std::string& label = sweep.topologies[head.topo].label;
    const Network& net = *nets[head.topo];
    if (failures) {
      eval_failure_group(sweep, solve, label, net, sweep.tms[head.tm], unit,
                         out);
      return;
    }
    out[head.index] =
        eval_cell(sweep, solve, label, net, sweep.tms[head.tm], head.index);
  };
  if (parallel_) {
    ThreadPool::shared().parallel_for(0, units.size(), eval_unit);
  } else {
    for (std::size_t u = 0; u < units.size(); ++u) eval_unit(u);
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Write-through: evaluated cells land in the memory cache and, when a
    // writable store is attached, on disk (put throws loudly if the store
    // already holds different bytes for the key — a determinism
    // violation). A read-only store stays a read tier.
    const bool persist =
        store != nullptr &&
        store->mode() == store::ResultStore::Mode::ReadWrite;
    for (const std::size_t index : misses) {
      const std::string key = cell_result_key(sweep, cells[index]);
      if (persist) store->put(key, out[index]);
      cache_.emplace(std::move(key), out[index]);
      ++stats_.misses;
    }
  }

  ResultSet rs;
  for (std::size_t index = range.lo; index < range.hi; ++index) {
    rs.add(std::move(out[index]));
  }
  if (slice) {
    SliceMeta meta;
    meta.grid = grid_fingerprint(sweep);
    meta.total = cells.size();
    meta.shard = shard;
    meta.lo = range.lo;
    meta.hi = range.hi;
    rs.set_slice(meta);
  }
  return rs;
}

std::uint64_t grid_fingerprint(const Sweep& sweep) {
  // Canonical structural string, hashed FNV-1a. config_fingerprint already
  // covers the solver / cut-bound / failure-axis configuration (including
  // the scenario list where it affects values); the axis label lists are
  // folded in unconditionally because they define the grid itself.
  // Distinct field separators keep e.g. a topology list ["a,b"] distinct
  // from ["a","b"].
  std::string s = "topobench-grid-v1\x1d";
  s += std::to_string(sweep.base_seed);
  s += '\x1d';
  s += std::to_string(sweep.trials);
  s += '\x1d';
  s += config_fingerprint(sweep);
  s += '\x1d';
  for (const TopoSpec& topo : sweep.topologies) {
    s += topo.label;
    s += '\x1e';
  }
  s += '\x1d';
  for (const TmSpec& tm : sweep.tms) {
    s += tm.label;
    s += '\x1e';
  }
  s += '\x1d';
  for (const ScenarioPoint& p : sweep.scenarios) {
    s += p.label;
    s += '\x1e';
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

Table relative_pivot(const ResultSet& rs, const Sweep& sweep) {
  std::vector<std::string> header{"topology", "servers", "switches"};
  for (const TmSpec& tm : sweep.tms) header.push_back("rel_" + tm.label);
  if (!sweep.tms.empty()) {
    header.push_back("ci95_" + sweep.tms.back().label);
  }
  Table table(std::move(header));
  for (const TopoSpec& topo : sweep.topologies) {
    std::vector<std::string> row;
    const CellResult& first = rs.at(topo.label, sweep.tms.front().label);
    row.push_back(topo.label);
    row.push_back(std::to_string(first.servers));
    row.push_back(std::to_string(first.switches));
    for (const TmSpec& tm : sweep.tms) {
      row.push_back(Table::fmt(rs.at(topo.label, tm.label).relative, 3));
    }
    const double ci = rs.at(topo.label, sweep.tms.back().label).relative_ci95;
    row.push_back(std::isnan(ci) ? "na" : Table::fmt(ci, 3));
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace tb::exp
