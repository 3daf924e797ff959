// Uniform result records for experiment sweeps. Every ported driver emits
// the same columns, so figure/table output is machine-parseable across the
// whole bench suite instead of per-driver ad-hoc tables.
//
// NaN sentinel: fields that do not apply — the random-graph baseline of an
// absolute (trials == 0) cell, or the CI of a single-trial cell — are quiet
// NaN in memory, rendered as "na" in CSV and null in JSON, and parsed back
// to NaN by from_csv. They are never 0, which would read as an exact value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exp/shard.h"
#include "util/json.h"

namespace tb::exp {

/// One evaluated sweep cell.
struct CellResult {
  std::size_t cell = 0;      ///< index in sweep expansion order
  std::string topology;      ///< instance name (TopoSpec label)
  int servers = 0;
  int switches = 0;
  std::string tm;            ///< TmSpec label
  std::uint64_t seed = 0;    ///< cell seed: mix_seed(base_seed, cell)
  std::string solver;        ///< solver configuration label
  int trials = 0;            ///< random-graph samples (0 = absolute mode)
  double throughput = 0.0;   ///< topology throughput
  double random_mean = std::numeric_limits<double>::quiet_NaN();
  double random_ci95 = std::numeric_limits<double>::quiet_NaN();
  double relative = std::numeric_limits<double>::quiet_NaN();
  double relative_ci95 = std::numeric_limits<double>::quiet_NaN();
  // Cut-bound columns (Sweep::cut_bounds): the best certified cut-based
  // throughput upper bound, its gap to measured throughput, and the
  // winning estimator with its certificate, e.g. "st-mincut(exact)".
  double cut_bound = std::numeric_limits<double>::quiet_NaN();
  double cut_gap = std::numeric_limits<double>::quiet_NaN();
  std::string cut_method;    ///< empty when cut bounds were not computed
  // Failure-scenario columns (Sweep::scenarios): the scenario's label, how
  // many links it failed, and the throughput drop vs the intact baseline
  // (1 - degraded/baseline). failed_links uses -1 (CSV "na") as its NA
  // sentinel since 0 is a legitimate count (pure capacity degradation).
  std::string scenario;      ///< empty when the sweep has no failure axis
  int failed_links = -1;
  double throughput_drop = std::numeric_limits<double>::quiet_NaN();
  // Structured-scenario columns (PR 10): distinct shared-risk groups the
  // scenario failed, the scenario's TM surge multiplier, and the growth
  // stage of a growth-stage scenario (ScenarioPoint::growth_step). Failure
  // cells record actual risk_group / tm_scale values (0 groups and
  // tm_scale 1 are legitimate data); every other cell keeps the NA
  // sentinels (-1 / NaN / -1).
  int risk_group = -1;
  double tm_scale = std::numeric_limits<double>::quiet_NaN();
  int growth_step = -1;
  // Solver work counters of the cell's topology solve (see
  // mcf::SolverStats): simplex pivots vs GK phases/dijkstras are distinct
  // kinds of work and get distinct columns; `warm` is 1 when the solve was
  // a warm solve (failure cells, solved on a fork of the baseline session).
  long pivots = 0;
  long phases = 0;
  long dijkstras = 0;
  // Max-flow work counters of the cell's cut-bound estimators (see
  // flow::MaxFlowStats): zero when the sweep computes no cut bounds.
  long pushes = 0;
  long relabels = 0;
  long global_relabels = 0;
  int warm = 0;
  // Intra-solve threading configuration of the cell's solves (the sweep
  // spec's SolveOptions::solver_threads — 0 means the shared pool), not a
  // measured worker count, and not the TOPOBENCH_SOLVER_THREADS execution
  // override: results stay byte-identical across machines, pool sizes and
  // env threading knobs, which the determinism entries rely on.
  int solver_threads = 0;
};

/// An ordered collection of cell results with uniform CSV emission.
/// CSV round-trips exactly: doubles are written with 17 significant digits
/// and fields containing separators are RFC-4180 quoted.
class ResultSet {
 public:
  void add(CellResult r) { rows_.push_back(std::move(r)); }
  const std::vector<CellResult>& rows() const noexcept { return rows_; }
  std::size_t size() const noexcept { return rows_.size(); }

  /// First row matching (topology, tm). Throws std::out_of_range if absent.
  const CellResult& at(const std::string& topology,
                       const std::string& tm) const;

  std::string to_csv() const;
  /// Inverse of to_csv ("#" comment records are skipped). A bad row
  /// throws std::invalid_argument carrying cell_from_csv_row's message,
  /// prefixed with the row's 1-based record number after the header.
  static ResultSet from_csv(const std::string& csv);

  /// Slice identity of a sharded run (set by Runner::run when a ShardSpec
  /// is in effect): emit writes it as a "#!" header line between the
  /// caption and the CSV header, making the slice mergeable and
  /// machine-checkable (see shard.h). Absent on unsharded runs, whose
  /// emission stays byte-identical to pre-sharding output.
  const std::optional<SliceMeta>& slice() const noexcept { return slice_; }
  void set_slice(const SliceMeta& meta) { slice_ = meta; }

  /// The drivers' one output rule. When TOPOBENCH_CSV=1 or this is a
  /// slice (a slice holds a partial grid, which no figure table can be
  /// derived from), writes "# caption", the "#!" header if sliced, the CSV
  /// and a blank line to `os`, and returns true. Otherwise writes nothing
  /// and returns false: the caller prints its figure table.
  bool emit(std::ostream& os, const std::string& caption) const;

 private:
  std::vector<CellResult> rows_;
  std::optional<SliceMeta> slice_;
};

/// True when TOPOBENCH_CSV=1: ResultSet::emit writes the uniform CSV, and
/// the hand-rolled drivers print their own tables as CSV. Strict loader
/// semantics: any value other than "0"/"1" throws std::invalid_argument
/// (see util/env.h).
bool csv_mode();

// --- single-record codec -------------------------------------------------
// The exact per-row byte discipline of to_csv/from_csv, exposed so other
// serializers (the on-disk result store, the server's JSON replies) reuse
// the same codec instead of inventing a second one. csv_row +
// cell_from_csv_row round-trip every CellResult bit-exactly: doubles are
// %.17g, NaN is "na", fields containing separators are RFC-4180 quoted.
// Every function here is a loop over one column list in results.cpp, so a
// new column is one entry there (the store's schema hash, the header's
// hash, changes with it).

/// The uniform CSV header line (no trailing newline).
const std::string& csv_header();

/// One CSV row for `r`, byte-identical to the corresponding to_csv line
/// (no trailing newline).
std::string csv_row(const CellResult& r);

/// Strict inverse of csv_row: throws std::invalid_argument on wrong arity,
/// malformed quoting, or a field that is not whole-valued for its column
/// ("abc" or "0.5x" in a number, a sign in an unsigned column, "na" in a
/// column without an NA sentinel); field errors name the column. Accepts
/// multi-line rows (quoted fields may contain newlines), matching from_csv's
/// record discipline.
CellResult cell_from_csv_row(const std::string& row);

/// The record as a JSON object with the CSV columns as members, in header
/// order: NA sentinels and non-finite doubles are null, and the 64-bit seed
/// is a decimal string (a JSON number, a double, cannot hold it exactly).
json::Value cell_json(const CellResult& r);

/// Read the next CSV record of `in` into `record`. A record spans physical
/// lines while a quote is open (quoted fields may contain newlines; quote
/// parity decides, since an escaped "" counts twice). Blank lines between
/// records are skipped, and a line starting with '#' at a record boundary
/// is a record of its own (captions, "#!" slice headers). Returns false at
/// end of input, leaving `record` empty unless the input ended inside a
/// quoted field.
bool read_csv_record(std::istream& in, std::string& record);

}  // namespace tb::exp
