// bench_perf: the repository benchmark. One binary, five workloads, each
// run in its own process:
//
//   ladder     the Fig. 4 grid through exp::Runner (cold GK solves)
//   cutgap     the cut-bound gap grid (ExactLP cells, cut battery, flow)
//   failures   the failure_resilience grids (ScenarioFleet warm solves)
//   adversary  mcf::worst_case_matching searches (the paper's second prong)
//   serve      a closed-loop client of the real topobench_server binary
//
// An untraced run repeats its workload's rounds for --seconds and reports
// the end-to-end metrics; a traced run (--trace 1) walks one round cell by
// cell and request by request from this directory's own code, recording a
// span around every call into a library layer, and reports the per-layer
// metrics. See README.md for the metric definitions and the layer map.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "flow/max_flow.h"
#include "mcf/engine.h"
#include "tm/traffic_matrix.h"
#include "topo/network.h"
#include "util/timer.h"

namespace perf {

/// Topology instances are the registry's seed-1 instances, as in the figure
/// drivers: --seed varies the TM draws, scenario samples, search proposals
/// and request streams, never the networks.
inline constexpr std::uint64_t kRegistrySeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< serve stores and trace files go here
  std::string trace_file;  ///< Chrome trace-event JSON of a traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main: its metrics, its op and
/// failure counts, and informational lines (CSV hashes, fail ratio).
class Report {
 public:
  void metric(std::string name, double value, std::string unit);

  /// Record one correctness check; a failing check prints `what` to stderr
  /// and marks the run incorrect. Returns `ok`.
  bool expect(bool ok, const std::string& what);

  void note(std::string line) { notes_.push_back(std::move(line)); }

  /// Value of the metric named `name`; NaN when absent.
  double value(const std::string& name) const;

  long attempted = 0;  ///< ops performed (cells, candidate solves, requests)
  long failed = 0;     ///< ops that failed a check or got an ok:false reply

  bool correct() const noexcept { return failures_ == 0; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const std::vector<std::string>& notes() const noexcept { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  long failures_ = 0;
};

// --- tracing ---------------------------------------------------------------

/// Identifiers a span carries: the op (cell, group, search or request) it
/// belongs to and the inputs of that op.
struct Tags {
  std::string id;
  std::string topology;
  std::string tm;
  std::string scenario;
};

/// An op identifier for span tags: kind letter plus index ("c12").
std::string op_id(char kind, std::size_t index);

/// In-memory span recorder for the traced walk. Spans nest through an
/// explicit stack (the walk is single-threaded); timestamps come from one
/// tb::Timer started with the tracer.
class Tracer {
 public:
  struct Span {
    std::string name;
    Tags tags;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// Open a span under the innermost open span, inheriting its tags.
  int open(std::string name);
  int open(std::string name, Tags tags);
  void close(int span);
  void rename(int span, std::string name);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  double duration(int span) const;
  /// Duration minus the time covered by the span's direct children.
  std::vector<double> self_times() const;
  /// Total duration of the spans named `name`.
  double total(const std::string& name) const;
  /// Total self time of the spans whose name starts with `prefix`.
  double self_total(const std::string& prefix) const;

  /// Write every span as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps, parent/self time/tags in args) with the per-layer metrics
  /// as otherData, then parse the file back. Returns false (and says why on
  /// stderr) when the file cannot be written or does not parse.
  bool write_chrome(const std::string& path, const std::string& workload,
                    const std::vector<Metric>& metrics) const;

 private:
  tb::Timer clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
  Scope(Tracer& t, std::string name, Tags tags)
      : t_(t), id_(t.open(std::move(name), std::move(tags))) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Work counters the walk accumulates next to its spans.
struct WalkCounters {
  long ops = 0;         ///< cells / searches / requests walked
  long misses = 0;      ///< cells the untraced Runner round evaluated
  double untraced_wall_s = 0.0;  ///< wall time of the same round, untraced
  long phases = 0;
  long dijkstras = 0;
  double arc_scans = 0.0;  ///< computed: sum of dijkstras x arcs
  double gk_seconds = 0.0;
  long lp_cells = 0;
  long pivots = 0;
  long warm_solves = 0;
  long warm_started = 0;
  long warm_phases = 0;
  long adversary_solves = 0;
  long adversary_improvements = 0;
  tb::flow::MaxFlowStats flow;
  long store_gets = 0;
  long store_puts = 0;
  long store_hits = 0;     ///< phase-B first-seen keys found on disk
  long store_probes = 0;   ///< phase-B first-seen keys looked up
  double store_bytes = 0.0;
  long api_solved = 0;
  long api_memory = 0;
  long api_disk = 0;
};

/// A TmSpec build under a tm.build span (tm.lm for the longest matching).
tb::TrafficMatrix traced_tm(Tracer& tracer, const tb::exp::TmSpec& spec,
                            const tb::Network& net, std::uint64_t seed);

/// ThroughputEngine construction under an mcf.engine span.
std::unique_ptr<tb::mcf::ThroughputEngine> traced_engine(
    Tracer& tracer, const tb::Network& net);

/// ThroughputEngine::solve / warm_solve under a span named mcf.* or lp.*
/// after the engine that ran, feeding the solver counters.
tb::mcf::ThroughputResult traced_solve(Tracer& tracer, WalkCounters& wc,
                                       tb::mcf::ThroughputEngine& engine,
                                       const tb::TrafficMatrix& tm,
                                       const tb::mcf::SolveOptions& opts,
                                       bool warm);

/// Close a traced run: emit every per-layer metric, in the order
/// BENCHMARK.json lists them, check that spans cover >= 95% of the walk,
/// and write the Chrome trace. `root` is the walk's (closed) root span.
void finish_trace(const Tracer& tracer, int root, const WalkCounters& wc,
                  const Options& opts, Report& report);

// --- independent checks (checks.cpp) ---------------------------------------
// These share no code with the solvers: plain BFS over the edge list.

/// §II-B volumetric bound: total arc capacity over the demand-weighted hop
/// length. Infinite when a demand is unreachable.
double volumetric_bound(const tb::Network& net, const tb::TrafficMatrix& tm);

/// Largest per-node egress or ingress demand (the hose scale of `tm`).
double hose_scale(const tb::TrafficMatrix& tm);

/// Theorem 2: a hose TM (scaled to egress/ingress <= 1) is feasible at
/// T_A2A / 2, and a GK value is within (1 - eps) of its optimum.
bool theorem2_holds(double throughput, double hose, double a2a, double eps);

/// Bitwise equality of two doubles (NaN payloads included).
bool same_bits(double a, double b);

/// FNV-1a 64-bit of `bytes`, as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes);

/// Median of `xs` (0 for no samples).
double median(std::vector<double> xs);

/// Emit the end-to-end metrics, in the order BENCHMARK.json lists them,
/// from the run's set-up samples, per-round op rates, per-request
/// latencies (seconds) and peak resident set.
void end_to_end(Report& report, const std::vector<double>& setup_s,
                const std::vector<double>& ops_per_s,
                const std::vector<double>& latency_s, double rss_mb);

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), in
/// MB. Read from /proc rather than getrusage: ru_maxrss survives execve,
/// so it would report the launching shell's footprint for a small process.
double peak_rss_mb(const std::string& pid);

// --- workloads ---------------------------------------------------------------

/// Each workload runs its untraced rounds (or, with opts.trace, its traced
/// walk), checks its outputs, and fills `report`. Throws on setup errors.
void run_ladder(const Options& opts, Report& report);
void run_cutgap(const Options& opts, Report& report);
void run_failures(const Options& opts, Report& report);
void run_adversary(const Options& opts, Report& report);
void run_serve(const Options& opts, Report& report);

}  // namespace perf
