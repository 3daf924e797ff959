// ThroughputEngine — the one way to get a throughput number: a reusable
// solver session bound to one topology.
//
// Every figure in the paper is a sweep in which the topology stays fixed
// while the TM, scale factor, or solver varies. The engine is constructed
// once per topology (a one-off number is just a short-lived engine) and
// keeps its state alive across solves:
//
//   * the preprocessed CSR graph (borrowed from the Network, which must
//     outlive the engine);
//   * the GargKonemann session (GkSolver): working per-arc capacities and
//     every arc-length / flow / Dijkstra buffer, reused between solves.
//
// Auto dispatch between the two kernels (GkSolver::solve and
// throughput_exact_lp) happens only here. solve() is a cold solve: on an
// unperturbed engine it is bitwise identical to a fresh engine's solve,
// whatever the engine solved before. warm_solve() seeds GK from the
// previous solution's arc lengths: for ladders of nearby instances
// (degraded-capacity variants, scaled demands) the certified gap closes in
// far fewer phases. GK lengths are seeded only when the commodity set
// matches the previous solve's; otherwise a warm GK solve is bitwise the
// cold one. Seeded results agree with cold ones within the certified
// primal/dual gap, not bitwise. The engine holds no LP state: every
// ExactLP solve, cold or warm, starts from throughput_exact_lp's
// spanning-tree basis, so a warm ExactLP solve is bitwise the cold solve
// under the same capacities.
//
// The scenario layer models degraded networks (paper's robustness
// discussion): ScenarioSpec describes link/node failure sets, uniform
// capacity degradation, and seeded random failure sampling;
// apply_scenario() perturbs only the affected arcs of the engine's working
// capacities (remembering their prior values), and clear_scenario()
// repairs them in O(affected arcs). Failed arcs are never routed; demands
// that a scenario disconnects make throughput exactly 0 (the concurrent
// flow must serve every commodity), reported with solver = "disconnected".
// GK routes on the working capacities (its warm lengths are indexed by the
// intact arc ids); ExactLP and the runner's cut bounds get the scenario as
// an ordinary instance, surviving_graph() with scenario_tm().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mcf/garg_konemann.h"
#include "mcf/throughput.h"
#include "tm/traffic_matrix.h"
#include "topo/network.h"

namespace tb::mcf {

// Seed sub-stream of ScenarioSpec::seed for the risk-group sampler, which
// draws from Rng(mix_seed(seed, kGroupSampleStream)) so enabling groups
// never changes the link sampler's draw sequence (random_edge_fraction
// keeps consuming Rng(seed) directly, preserving pre-group results
// bit-for-bit). Exported so tests can compute the expected sample sets
// independently.
inline constexpr std::uint64_t kGroupSampleStream = 0x67726f7570ULL;  // "group"

/// A degraded-network scenario, applied to an engine as an incremental
/// perturbation. Explicit failure sets, node failures (a failed node loses
/// every incident link and its demands are dropped), partial installation
/// (an uninstalled node tail), correlated shared-risk group failures,
/// uniform capacity degradation of the surviving links, seeded random
/// link/group failure sampling, and traffic-surge scaling compose in one
/// spec.
struct ScenarioSpec {
  std::vector<int> failed_edges;  ///< edge ids to remove outright
  /// Nodes whose incident edges all fail. Demands with a failed endpoint
  /// cannot be served and are dropped: throughput is then over the
  /// surviving commodities.
  std::vector<int> failed_nodes;
  /// Indices into Network::risk_groups whose edges all fail (correlated
  /// shared-risk failure). Requires the network to export risk groups.
  std::vector<int> failed_groups;
  /// Capacity multiplier in (0, 1] applied to every surviving edge.
  double capacity_factor = 1.0;
  /// Additionally fail round(fraction * num_edges) distinct edges sampled
  /// uniformly with `seed` (deterministic; may overlap the explicit sets).
  double random_edge_fraction = 0.0;
  /// Additionally fail round(fraction * num_groups) distinct risk groups
  /// sampled uniformly with Rng(mix_seed(seed, kGroupSampleStream)) — a
  /// separate stream, so enabling groups never perturbs the edge sampler.
  double random_group_fraction = 0.0;
  std::uint64_t seed = 0;
  /// Traffic surge: every demand is scaled by tm_scale (finite, > 0)
  /// before the solve. Applied to the input TM inside the engine —
  /// capacities are untouched, so the revert contract is unaffected. For
  /// the exact LP, throughput scales exactly by 1/tm_scale.
  double tm_scale = 1.0;
  /// Incremental expansion, in (0, 1]: below 1 only the first
  /// k = max(2, min(n, round(installed_fraction * n))) switches are
  /// installed and nodes [k, n) fail as if listed in failed_nodes.
  double installed_fraction = 1.0;
};

/// The risk-group indices `spec` fails on a network with `num_groups`
/// groups: the explicit failed_groups plus the seeded correlated sample
/// (sorted, deduplicated). This is exactly the set apply_scenario resolves;
/// exported so callers and tests can predict it without an engine. Throws
/// std::out_of_range / std::invalid_argument like apply_scenario.
std::vector<int> sampled_risk_groups(const ScenarioSpec& spec, int num_groups);

/// Reusable throughput solver session. Construct once per topology; `net`
/// must outlive the engine. Not thread-safe — one engine per thread of
/// control (the exp runner builds one per evaluation unit).
class ThroughputEngine {
 public:
  explicit ThroughputEngine(const Network& net);

  ThroughputEngine(const ThroughputEngine&) = delete;
  ThroughputEngine& operator=(const ThroughputEngine&) = delete;

  /// Cold solve under the current (possibly scenario-degraded) capacities.
  /// With no scenario active it equals a fresh engine's solve bitwise.
  ThroughputResult solve(const TrafficMatrix& tm,
                         const SolveOptions& opts = {});

  /// Like solve(), but seeds GK from the previous solution on this engine
  /// (its arc lengths, when the commodity set matches). Falls back to a
  /// cold start when no previous solution exists; an ExactLP warm solve is
  /// the cold solve. ThroughputResult::stats.warm_start records, on both
  /// kernels, only that warm was requested — not that lengths were seeded.
  ThroughputResult warm_solve(const TrafficMatrix& tm,
                              const SolveOptions& opts = {});

  /// Apply `spec` to the working capacities (replacing any active
  /// scenario). Touches only the affected arcs and remembers their prior
  /// capacities so clear_scenario() repairs in O(affected arcs). Throws
  /// std::out_of_range / std::invalid_argument on bad ids or factors; the
  /// whole spec is validated first, so a throw leaves the engine as it was.
  void apply_scenario(const ScenarioSpec& spec);

  /// Restore the unperturbed capacities (O(affected arcs) repair).
  void clear_scenario();

  /// Fork a lightweight clone of this session for evaluating independent
  /// perturbations concurrently (the runner's per-scenario sessions): the
  /// clone shares the immutable topology and copies only per-arc working
  /// state — capacities and warm GK lengths — so its next warm_solve seeds
  /// exactly as this engine's would. Throws
  /// std::logic_error while a scenario is active (fork the intact
  /// baseline, then apply scenarios to the clones).
  std::unique_ptr<ThroughputEngine> fork_session() const;

  bool scenario_active() const noexcept { return scenario_active_; }
  /// Edges with zero capacity under the active scenario (0 when none).
  int failed_edge_count() const noexcept { return failed_edge_count_; }
  /// Distinct risk groups failed by the active scenario (explicit plus
  /// sampled; 0 when none active or the scenario fails no groups).
  int failed_group_count() const noexcept { return failed_group_count_; }
  /// The working per-arc capacities (scenario-degraded while active).
  /// Exposed for revert verification; treat as read-only session state.
  const std::vector<double>& arc_capacities() const noexcept {
    return gk_.arc_capacities();
  }
  /// The network the active scenario leaves: the same node ids and only the
  /// edges whose working capacity is > 0, at that capacity, in edge order.
  /// The intact graph when no capacity is perturbed; otherwise derived at
  /// most once per applied scenario. Valid until the next apply_scenario or
  /// clear_scenario.
  const Graph& surviving_graph();
  /// `tm` as the active scenario routes it: demands with a failed endpoint
  /// are dropped (they cannot be served; throughput is over the surviving
  /// commodities) and the rest are scaled by the surge factor. Uniform
  /// scaling keeps the commodity pairs, so GK length seeding still applies.
  /// With no scenario active, a copy of `tm`.
  TrafficMatrix scenario_tm(const TrafficMatrix& tm) const;
  const Network& network() const noexcept { return *net_; }

 private:
  /// Fork constructor backing fork_session().
  ThroughputEngine(const ThroughputEngine& base, bool);

  ThroughputResult run(const TrafficMatrix& tm, const SolveOptions& opts,
                       bool warm);
  /// True when every demand connects nodes in one component of the
  /// surviving graph.
  bool demands_connected(const TrafficMatrix& tm);

  const Network* net_;
  GkSolver gk_;  ///< owns the working per-arc capacities

  // Scenario bookkeeping: touched edges with their undegraded capacities
  // (the O(affected) repair list), the failed-node mask for demand
  // filtering, and the surge factor (applied to the input TM per solve,
  // never persisted into session state — clear_scenario just forgets it).
  std::vector<std::pair<int, double>> touched_;
  std::optional<Graph> surviving_;  ///< surviving_graph(), once derived
  std::vector<char> node_failed_;
  bool scenario_active_ = false;
  bool any_node_failed_ = false;
  int failed_edge_count_ = 0;
  int failed_group_count_ = 0;
  double tm_scale_ = 1.0;

  // Commodity-set fingerprint of the last GK solve: length seeding is only
  // sound-and-useful between *nearby* instances — same (src, dst) pairs
  // with perturbed capacities or scaled demands — so warm_solve seeds GK
  // lengths only when the fingerprint matches. 0 = no previous GK solve.
  std::uint64_t gk_tm_fingerprint_ = 0;
};

}  // namespace tb::mcf
