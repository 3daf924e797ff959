// Executes sweeps on the shared thread pool with deterministic per-cell
// seeding and an in-process result cache.
//
// Seeding contract: a cell's seed is mix_seed(base_seed, cell_index); its
// traffic matrix is built with mix_seed(base, cell, 0) and random-graph
// trial t in [1..trials] draws its same-equipment graph from
// mix_seed(base, cell, t). When Sweep::cut_bounds is set, the cut-bound
// sampler draws from mix_seed(base, cell, trials + 1) — the stream after
// the last trial — and when the sweep has a failure axis, the scenario's
// random-failure sampler draws from mix_seed(base, cell, trials + 2), the
// stream after the cut sampler, so enabling either perturbs no existing
// column. Cells run concurrently on ThreadPool::shared()
// (nested solver parallelism degrades inline — see thread_pool.h) and the
// ResultSet is assembled after the barrier in cell order, so for a fixed
// base seed the output is byte-identical for any thread count, including
// TOPOBENCH_THREADS=1.
//
// Failures mode (Sweep::scenarios non-empty): the missing cells of each
// (topology, TM) pair evaluate as one failure group — a single cold
// baseline solve, then every scenario applied to its own fork of the
// baseline session (ThroughputEngine::fork_session) and warm-solved — so a
// grid of S scenarios pays one baseline instead of S. Each cell is bitwise
// the one-at-a-time sequence on a fresh engine (cold solve,
// apply_scenario, warm_solve). The group's TM is built from its scenario-0 cell stream
// (mix_seed(base, first_cell, 0)): every scenario of the group degrades the
// same instance, which is what makes the shared baseline (and the drop
// column) meaningful; each scenario's failure sampler still draws from its
// own cell's stream mix_seed(base, cell, trials + 2). Groups run
// concurrently, and so do the scenarios of a group (inline when the group
// itself runs on a pool worker); per-scenario results are independent of
// group shape, so the determinism contract is unchanged. Growth stages
// (exp::growth_scenarios) are ordinary points of this axis: each fails its
// uninstalled node tail, and the point's growth_step fills that column.
//
// Failures mode requires absolute mode (trials == 0); Runner::run throws
// otherwise (validate_modes). A degraded cell has no same-equipment
// random-graph counterpart: the scenario's sampled edge ids and risk groups
// do not map onto a random graph's edges, so there is no relative column to
// report. With cut bounds, a degraded cell's cut is priced on the instance
// its solve saw: the engine's surviving graph and perturbed TM.
//
// Dispatch: every mode runs through one loop over evaluation units — a
// (topology, TM) failure group in failures mode, a single cold cell
// otherwise — claimed concurrently from the shared pool.
//
// Solver threading: Runner::run seeds SolveOptions::solver_threads from
// TOPOBENCH_SOLVER_THREADS when the sweep leaves it 0. By the solver
// determinism contracts the knob never changes values — it is recorded in
// the solver_threads column (the requested configuration, not a measured
// count) and deliberately excluded from cache identity.
//
// Cache contract: results are memoized under (topology label, TM label,
// scenario label, cell seed, solver + cut-bound configuration, trial
// count). Because the cell seed is derived from the flat expansion
// index, a lookup hits only when the cell sits at the same index under the
// same base seed: exact re-runs of a sweep hit entirely, and sweeps
// extended by appending topologies (with the TM list unchanged) hit on
// their shared prefix. Inserting topologies or changing the TM list shifts
// later indices and re-evaluates those cells. Labels are trusted as
// identities (see sweep.h).
//
// Sharding (TOPOBENCH_SHARD=i/n, or RunOptions::shard programmatically):
// the run evaluates and returns only the cells of shard i's contiguous
// range of the flat grid (see shard.h for the partition contract) and the
// ResultSet carries a SliceMeta so emission is a mergeable slice. Cells
// keep their global flat indices everywhere — seeding, cache keys, failure
// group floors — so a shard's rows are bitwise the corresponding rows of
// the unsharded run for every sweep mode. tools/topobench_merge
// reassembles slices into the unsharded bytes.
//
// Result store (RunOptions::store): an optional on-disk tier under the
// in-process cache. The probe order is memory, then disk, then evaluate; a
// disk hit is copied into the memory cache, and every evaluated cell is
// written through to the store (when it is writable). Store keys are the
// cache keys above (see cell_result_key), values the exact CSV row codec,
// so a sweep re-run against a populated store returns byte-identical
// results without a single solve. CacheStats splits hits into
// memory_hits/disk_hits so callers can tell the tiers apart.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
// topobench-lint: allow(unordered-container) lookup-only result cache below
#include <unordered_map>

#include "exp/results.h"
#include "exp/shard.h"
#include "exp/sweep.h"
#include "util/table.h"

namespace tb::store {
class ResultStore;
}  // namespace tb::store

namespace tb::exp {

struct CacheStats {
  std::size_t hits = 0;         ///< cells answered without evaluation
                                ///< (always memory_hits + disk_hits)
  std::size_t memory_hits = 0;  ///< ... from the in-process cache
  std::size_t disk_hits = 0;    ///< ... from the on-disk result store
  std::size_t misses = 0;       ///< cells actually evaluated
};

/// Per-run execution options (as opposed to the Sweep, which describes the
/// grid itself and is part of result identity). This is the single
/// consolidated knob path: environment variables enter exclusively through
/// from_env(), and every field can be set programmatically without
/// touching the environment.
struct RunOptions {
  /// When engaged, evaluate only this shard of the flat cell grid and
  /// return a slice (ResultSet::slice is set; see shard.h). Disengaged:
  /// the whole grid, emitted without a slice header.
  std::optional<ShardSpec> shard;

  /// Intra-solve worker threads, applied when the sweep's SolveOptions
  /// leave solver_threads at 0 (0 = shared pool; never changes values —
  /// see the solver determinism contracts).
  int solver_threads = 0;

  /// On-disk result tier (read-through/write-through when ReadWrite,
  /// read-only tier otherwise). Shared so a Service and its Runner can
  /// hold the same store. The Runner serializes all store access under
  /// its cache mutex.
  std::shared_ptr<store::ResultStore> store;

  /// The one environment loader (strict: malformed values throw
  /// std::invalid_argument, see util/env.h):
  ///   TOPOBENCH_SHARD=i/n       -> shard
  ///   TOPOBENCH_SOLVER_THREADS  -> solver_threads (integer in [0, 512])
  ///   TOPOBENCH_STORE=<path>    -> store, opened ReadWrite (created if
  ///                                absent; throws if another writer holds
  ///                                the lock or the file is corrupt)
  static RunOptions from_env();
};

class Runner {
 public:
  /// `parallel = false` forces cells — and the scenarios of a failure
  /// group — onto the calling thread (the solvers still honor
  /// Sweep::solve.solver_threads independently).
  explicit Runner(bool parallel = true) : parallel_(parallel) {}

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Evaluate `sweep` under `opts` and return results in cell order (pass
  /// RunOptions::from_env() for the environment contract). Throws
  /// std::invalid_argument on an empty grid, an invalid mode combination
  /// (see the failures-mode contract above), or an
  /// engaged-but-invalid opts.shard.
  ResultSet run(const Sweep& sweep, const RunOptions& opts);

  const CacheStats& cache_stats() const noexcept { return stats_; }

 private:
  /// Evaluate one non-failure cell with a cold solve.
  CellResult eval_cell(const Sweep& sweep, const mcf::SolveOptions& solve,
                       const std::string& topo_label, const Network& net,
                       const TmSpec& tm, std::size_t cell_index) const;

  /// Evaluate the missing cells of one (topology, TM) failure group — one
  /// cold baseline, then per cell fork_session, apply_scenario and
  /// warm_solve, fanned out over the shared pool when parallel_ — writing
  /// each cell's result into `out` (indexed by flat cell index).
  /// `cell_indices` holds the group's missing cells in cell order.
  void eval_failure_group(const Sweep& sweep, const mcf::SolveOptions& solve,
                          const std::string& topo_label, const Network& net,
                          const TmSpec& tm,
                          std::span<const std::size_t> cell_indices,
                          std::vector<CellResult>& out) const;

  /// The shared implementation: evaluate `shard`'s cell range (global
  /// indices throughout) and, when `slice` is true, stamp the returned
  /// ResultSet with its SliceMeta. `opts` supplies the store tier and the
  /// solver-threads default.
  ResultSet run_impl(const Sweep& sweep, const RunOptions& opts,
                     const ShardSpec& shard, bool slice);

  bool parallel_;
  std::mutex mutex_;
  // Order-independent by construction: the cache is only probed with
  // point lookups (find/insert under mutex_) and is never iterated, and
  // the ResultSet is assembled in flat cell order after the barrier, so
  // bucket order cannot reach emitted bytes. Pinned by exp_test
  // Runner.CacheInsertionOrderCannotLeakIntoCsvBytes, which populates the
  // cache in reversed shard order and diffs the replayed CSV.
  // topobench-lint: allow(unordered-container) lookup-only, never iterated
  std::unordered_map<std::string, CellResult> cache_;
  CacheStats stats_;
};

/// Stable structural identity of a sweep's flat grid — the slice-header
/// fingerprint that stops slices of different grids from merging. Folds in
/// the base seed, trial count, solver / cut-bound / scenario configuration,
/// and the ordered topology, TM, and scenario label lists; anything that
/// changes the grid's cells or their values changes the fingerprint. (Like
/// cache keys, labels are trusted as identities, and scheduling knobs —
/// threads, pool shape — are deliberately excluded.)
std::uint64_t grid_fingerprint(const Sweep& sweep);

/// Human-readable label of a solver configuration ("auto(eps=0.1)",
/// "exact-lp", "gk(eps=0.03)"); part of the result rows and cache key.
std::string solver_label(const mcf::SolveOptions& opts);

/// The cache/store identity of one cell of `sweep`: topology label, TM
/// label, scenario label, cell seed, configuration fingerprint, and trial
/// count, '\x1f'-joined — exactly the key Runner memoizes under and the
/// ResultStore persists under. Exposed so tests and tools can address
/// store records without re-deriving the scheme.
std::string cell_result_key(const Sweep& sweep, const Cell& cell);

/// Pivot a relative-mode sweep into the scaling-figure shape: one row per
/// topology with rel_<tm> columns plus the CI of the last TM (the paper's
/// Figs. 5/6 layout).
Table relative_pivot(const ResultSet& rs, const Sweep& sweep);

}  // namespace tb::exp
