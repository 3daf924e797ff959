// tb::api — the single stable public façade of topobench.
//
// External consumers (the topobench_server daemon, the examples, scripted
// users) include ONLY this header; everything under src/ other than this
// directory is internal and may change freely between versions. The façade
// re-exposes the few internal vocabulary types that are already stable
// public contracts (the uniform CellResult record with its CSV codec, the
// ResultSet container, the TopoSpec/TmSpec/ScenarioPoint identities) under
// api names and wraps everything else behind:
//
//   build_topology / custom_topology / load_topology / save_topology
//   build_tm / build_scenario         string-addressed factories
//   Query / QueryResult               one cell: topology x TM (x scenario)
//   SweepQuery / SweepResult          a grid, evaluated as one batch
//   Service                           Runner + on-disk result store
//   ServiceConfig::from_env()         the one environment entry point
//
// Versioning: kApiVersion is the semantic version of this header's
// surface; kProtocolVersion is the topobench_server wire-protocol version
// (see tools/topobench_server.cpp and docs/ARCHITECTURE.md); the store
// file format version lives in store/result_store.h. The server's `hello`
// response reports all three so clients can refuse mismatches up front.
//
// Determinism: everything here inherits the repo's bitwise-determinism
// contract — a QueryResult is a pure function of (query, seed), repeats
// are answered from the in-process cache or the on-disk store with the
// exact bytes of the original solve, and Service::stats() tells the three
// tiers apart.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exp/results.h"
#include "exp/runner.h"
#include "exp/sweep.h"

namespace tb::api {

/// Semantic version of the tb::api surface.
inline constexpr const char* kApiVersion = "1.0.0";

/// topobench_server line-delimited JSON protocol version.
inline constexpr int kProtocolVersion = 1;

// --- vocabulary ----------------------------------------------------------
// The spec types are the stable identity contracts of the system (labels
// are trusted as identities; see exp/sweep.h) and are re-exported as-is.

using Topology = exp::TopoSpec;      ///< label + lazy deterministic builder
using Traffic = exp::TmSpec;         ///< label + TM builder
using Scenario = exp::ScenarioPoint; ///< label + failure/degradation spec
using Result = exp::CellResult;      ///< the uniform result record
using ResultSet = exp::ResultSet;    ///< ordered records, CSV emission

/// Solver selection (mirrors the internal SolverKind without exposing it).
enum class Solver { Auto, ExactLP, GargKonemann };

/// Where an answer came from. Solved = a fresh evaluation ran; Memory =
/// the Service's in-process cache; Store = the on-disk result store.
enum class Source { Solved, Memory, Store };

const char* to_string(Source s);

// --- topology / TM / scenario factories ----------------------------------

/// The recognized family spellings for build_topology ("bcube", "dcell",
/// "dragonfly", "fattree", "fbf", "hypercube", "hyperx", "jellyfish",
/// "longhop", "slimfly"), in deterministic (sorted) order.
std::vector<std::string> family_names();

/// A registry-backed topology: the ladder instance of `family` nearest
/// `target_servers` (randomized constructions draw from `seed`). The
/// instance is built lazily — a query answered from cache or store never
/// pays construction. The label is
/// "<family>(servers=<target_servers>,seed=<seed>)", a pure function of
/// the inputs, satisfying the label-identity contract. Throws
/// std::invalid_argument on an unknown family or non-positive size.
Topology build_topology(const std::string& family, int target_servers,
                        std::uint64_t seed = 1);

/// Wrap a caller-constructed Network (label = the network's own name).
Topology custom_topology(Network net);

/// Parse the edge-list format (see topo/io.h docs) from `in`; the label is
/// `name`. Throws std::runtime_error on malformed input.
Topology load_topology(std::istream& in, const std::string& name);

/// Serialize `t`'s instance in the edge-list format (builds the instance).
void save_topology(std::ostream& os, const Topology& t);

/// Traffic-matrix factory addressed by spec string:
///   "a2a"      all-to-all                     (label "A2A")
///   "rm(<k>)"  k random server matchings      (label "RM(<k>)")
///   "lm"       longest matching, near-worst   (label "LM")
///   "kodialam" LP-based near-worst-case       (label "Kodialam")
/// Throws std::invalid_argument on anything else.
Traffic build_tm(const std::string& spec);

/// Failure-scenario factory addressed by spec string:
///   "fail(f=<frac>)"    fail round(frac * edges) random links
///   "degrade(c=<fac>)"  scale every capacity to fac in (0, 1] of nominal
///   "groups(f=<frac>)"  fail round(frac * groups) random shared-risk groups
///   "surge(x=<scale>)"  scale every demand by x (traffic surge)
/// The returned label equals the canonical spec string. Throws
/// std::invalid_argument on anything else or out-of-range parameters.
Scenario build_scenario(const std::string& spec);

// --- queries -------------------------------------------------------------

/// One throughput question. With `scenario` set the answer is the degraded
/// throughput of that failure scenario (requires trials == 0); with
/// trials > 0 the answer is relative mode
/// (throughput vs `trials` same-equipment random graphs). The pair
/// (query, seed) fully determines the result bytes.
struct Query {
  Topology topology;
  Traffic tm;
  Solver solver = Solver::Auto;
  double epsilon = 0.03;     ///< GK certified-gap target, in
                             ///< [mcf::kMinEpsilon, mcf::kMaxEpsilon]
  int trials = 0;            ///< >0: relative mode
  bool cut_bounds = false;   ///< also compute certified cut upper bounds
  std::optional<Scenario> scenario;
  std::uint64_t seed = 1;
};

struct QueryResult {
  Result record;                    ///< the uniform result row
  Source source = Source::Solved;   ///< which tier answered
};

/// A grid of questions evaluated as one batch: every topology crossed with
/// every TM (and, when scenarios is non-empty, every scenario — the
/// runner's failure groups, so a (topology, TM) pair's scenarios share one
/// baseline solve). Exactly exp::Sweep semantics behind the façade.
struct SweepQuery {
  std::vector<Topology> topologies;
  std::vector<Traffic> tms;
  Solver solver = Solver::Auto;
  double epsilon = 0.03;
  int trials = 0;
  bool cut_bounds = false;
  std::vector<Scenario> scenarios;
  std::uint64_t seed = 1;
};

/// Per-batch tier accounting (cells, not queries).
struct BatchStats {
  std::size_t memory_hits = 0;
  std::size_t disk_hits = 0;
  std::size_t solved = 0;
};

struct SweepResult {
  ResultSet results;   ///< cell order; to_csv() is the canonical byte form
  BatchStats stats;
};

// --- service -------------------------------------------------------------

/// Service construction options — the one consolidated configuration path
/// (programmatic fields here; environment only via from_env()).
struct ServiceConfig {
  /// On-disk result store path; empty = in-process cache only.
  std::string store_path;
  /// Open the store read-only (answer from it, never write). Default:
  /// read-write (created if absent; single-writer flock enforced).
  bool store_read_only = false;
  /// Intra-solve worker threads when a query leaves the choice open
  /// (0 = shared pool; never changes result bytes).
  int solver_threads = 0;

  /// The one environment loader (strict — malformed values throw
  /// std::invalid_argument; see util/env.h):
  ///   TOPOBENCH_STORE=<path>      -> store_path
  ///   TOPOBENCH_STORE_RO=0|1      -> store_read_only
  ///   TOPOBENCH_SOLVER_THREADS=N  -> solver_threads (in [0, 512])
  /// (TOPOBENCH_THREADS sizes the shared pool itself; TOPOBENCH_SHARD and
  /// TOPOBENCH_CSV belong to the batch runner's RunOptions/emission paths.)
  static ServiceConfig from_env();
};

/// Cumulative Service counters. hits/misses count cells; queries counts
/// query()/sweep() calls answered.
struct ServiceStats {
  std::size_t queries = 0;
  std::size_t cells = 0;
  std::size_t memory_hits = 0;
  std::size_t disk_hits = 0;
  std::size_t misses = 0;        ///< cells actually solved
  std::size_t store_entries = 0; ///< records in the attached store (0 if none)
};

/// The long-lived query engine: an exp::Runner (in-process cache, shared
/// thread-pool execution) over an optional store::ResultStore tier.
/// Thread-safe: calls are serialized on an internal mutex; each batch
/// still fans its cells out across the shared pool internally. Construction
/// throws std::runtime_error when the store cannot be opened (missing
/// read-only file, second writer, corruption).
class Service {
 public:
  explicit Service(ServiceConfig cfg = ServiceConfig{});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Answer one Query. Repeats of an identical query (same seed) are
  /// answered from cache/store with the original solve's exact bytes.
  QueryResult query(const Query& q);

  /// Evaluate a SweepQuery as one batch in cell order.
  SweepResult sweep(const SweepQuery& q);

  ServiceStats stats() const;
  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  SweepResult run_locked(const exp::Sweep& sweep);

  ServiceConfig cfg_;
  mutable std::mutex mutex_;
  exp::Runner runner_;
  exp::RunOptions run_opts_;   ///< solver_threads + shared store tier
  std::size_t queries_ = 0;
  std::size_t cells_ = 0;
};

}  // namespace tb::api
