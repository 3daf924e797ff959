// Garg-Konemann / Fleischer (1-eps)-approximate maximum concurrent flow.
//
// Throughput (paper §II-A) is the optimum of the max concurrent flow LP.
// Beyond a few dozen switches the exact simplex is too slow, so the
// workhorse is the multiplicative-weights FPTAS:
//
//   * arc lengths start at delta/c(a); phases route every commodity's
//     demand along (approximately) shortest paths under the current
//     lengths, multiplying traversed arc lengths by (1 + eps * vol/c);
//   * commodities are aggregated by source — one shortest-path tree serves
//     all destinations of a source, and since the TM is pre-scaled so every
//     source emits <= min-capacity per phase, routing a whole source tree
//     is one legal GK step per arc;
//   * Fleischer's tree reuse (SIAM J. Discrete Math. 13(4), 2000) is the
//     one dynamics: each source keeps its routed tree across phases and
//     re-runs Dijkstra only when the tree's path lengths have grown past a
//     (1 + eps) staleness budget of their build-time shortest distances.
//     Single-sink sources (matching TMs) rebuild with a bidirectional
//     Dijkstra;
//   * both shortest-path kernels allocate nothing per call: each scratch
//     slot owns its heaps (a 4-ary min-heap on (key, node), which pops in
//     exactly the order of the binary std::priority_queue it replaced, so
//     settle order and tie-breaks are unchanged), its label arrays are
//     sized once per solve and kept clean between calls (each call resets
//     only the entries it touched, on every exit), and arc heads come from
//     the graph's CSR head array (Graph::out_heads);
//   * a primal/dual pair certifies accuracy: the primal value is
//     completed_phases / max_congestion (a feasible concurrent flow); the
//     dual bound is min D(l)/alpha(l) over the periodic exact sweeps, which
//     recompute alpha(l) with exact shortest distances under the frozen
//     end-of-phase lengths (every length function upper-bounds OPT by LP
//     duality) and refresh every cached tree for free. Routing along
//     slightly stale trees only affects how fast the certificate closes.
//     We stop when the certified gap falls below `epsilon`, the classic
//     D(l) >= 1 criterion fires, or the gap has stopped tightening (the
//     plateau guard: no improvement for max(500, p) phases since it last
//     improved at phase p; upper_bound still carries the true gap).
//
// Parallelism (the threaded-determinism contract): within a phase, sources
// are processed in fixed-size blocks; each block's shortest-path work —
// staleness checks, tree rebuilds, and the exact dual sweeps — runs on a
// thread pool against lengths frozen at the block boundary, each slot
// writing only its own scratch buffers, and every length/flow update (plus
// the alpha reduction of the sweeps) is applied serially afterwards in
// source order. Results are therefore bitwise independent of the thread
// count — including a 1-worker pool and the fully serial path — because
// the block partition is a constant, the per-slot arithmetic is identical,
// and the reductions run in a fixed order; block staleness only perturbs
// path choice, never the primal/dual certificates.
// GkOptions::pool selects the pool; null runs every block serially (the
// engine resolves SolveOptions::solver_threads into it via
// ThreadPool::resolve). Each solve decides once whether the pool pays:
// gk_pool_pays, a pure function of the graph's arc count and whether any
// source has more than one sink, sends the blocks to the pool only above
// a measured size cutoff; below it a pooled solve runs the serial loops,
// since handing a block to the pool costs more than its searches. Either
// way the bits are those of the serial solve.
//
// GkSolver is the session form used by mcf::ThroughputEngine: it binds to
// one graph, owns working per-arc capacities (the scenario layer degrades
// or zeroes them — a zero capacity marks a failed arc, which simply gets an
// infinite length and so is never routed), keeps every per-solve buffer
// alive between solves, and can warm-start a solve by seeding the arc
// lengths with the (mass-renormalized) final lengths of the previous solve.
// Seeding is the only thing warm changes: an unseeded warm solve is bitwise
// the cold solve. Warm starts never weaken correctness: the dual bound
// D(l)/alpha(l) is valid for ANY positive length function and the primal
// value is a certified feasible flow of the current solve only — seeding
// merely changes how fast the certificate closes (and therefore which
// certified point is reported; seeded and cold results agree within their
// certified gaps, not bitwise).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "mcf/min_heap.h"
#include "tm/traffic_matrix.h"

namespace tb {
class ThreadPool;
}  // namespace tb

namespace tb::mcf {

struct GkOptions {
  double epsilon = 0.05;       ///< target certified relative gap, in
                               ///< [kMinEpsilon, kMaxEpsilon]
                               ///< (mcf/throughput.h); solve rejects others
  /// Pool for the per-block parallelism; null runs serially, and so does
  /// any graph below gk_pool_pays' cutoff. Never affects results (see the
  /// determinism contract above) — only which threads do the work.
  ThreadPool* pool = nullptr;
};

/// Whether a solve on `num_arcs` arcs sends its block scans to the pool:
/// true from a measured size cutoff up, which is lower when some source
/// has more than one sink (`multi_sink`). The cutoffs come from the
/// serial-vs-pooled curve in docs/ARCHITECTURE.md ("GK's pool cutoff").
bool gk_pool_pays(int num_arcs, bool multi_sink) noexcept;

struct GkResult {
  double throughput = 0.0;     ///< certified feasible concurrent flow value
  double upper_bound = 0.0;    ///< certified dual upper bound on OPT
  long phases = 0;
  long dijkstras = 0;          ///< shortest-path-tree computations performed
  bool warm_started = false;   ///< lengths were seeded from a prior solve
  double max_congestion = 0.0; ///< of the raw accumulated flow
  std::vector<double> arc_flow;///< scaled feasible flow per arc
};

/// Reusable GK session bound to one (finalized) graph, which must outlive
/// the solver. Not thread-safe: one solver per thread of control.
class GkSolver {
 public:
  explicit GkSolver(const Graph& g);

  /// Copying clones the session identity — the bound graph, the working
  /// per-arc capacities, and the warm state (the previous solve's final
  /// lengths) — but none of the per-solve transient buffers, which the
  /// copy's first solve sizes and fills before use (the kept-clean scratch
  /// arrays start at their fill value): a copy's next solve is bitwise the
  /// solve the original would run. This is what ThroughputEngine::fork_session
  /// copies per failure scenario, so it stays O(arcs), not O(scratch).
  GkSolver(const GkSolver& other)
      : g_(other.g_),
        cap_(other.cap_),
        length_(other.length_),
        has_warm_(other.has_warm_) {}
  GkSolver& operator=(const GkSolver&) = delete;

  /// Working capacity of edge `e` (both its arcs). 0 marks the edge failed;
  /// negative capacities are rejected.
  void set_edge_capacity(int e, double cap);
  double edge_capacity(int e) const;
  /// Working per-arc capacities (index = arc id; 0 = failed).
  const std::vector<double>& arc_capacities() const noexcept { return cap_; }

  /// Approximate max concurrent flow of `tm` under the working capacities.
  /// `warm` seeds arc lengths from the previous solve on this solver (no-op
  /// on the first solve). Demands between nodes disconnected under the
  /// working capacities throw std::runtime_error — callers with failure
  /// scenarios should pre-check (ThroughputEngine does). An opts.epsilon
  /// outside [kMinEpsilon, kMaxEpsilon] (NaN included) throws
  /// std::invalid_argument.
  GkResult solve(const TrafficMatrix& tm, const GkOptions& opts = {},
                 bool warm = false);

 private:
  struct SourceGroup {
    int src = 0;
    std::vector<std::pair<int, double>> sinks;  // (dst, demand)
    double out_total = 0.0;
  };

  /// Cached routed tree of one source group: the per-arc phase volumes in
  /// leaf-to-root order (fixed while the tree is reused — each phase routes
  /// the same demands) and the sinks' shortest distances at build time (the
  /// staleness reference).
  struct TreeCache {
    bool valid = false;
    std::vector<std::pair<int, double>> arcs;  // (arc id, phase volume)
    std::vector<double> build_dist;            // aligned with group sinks
  };

  /// Per-slot scratch for the block-parallel shortest-path work: one slot
  /// per block position, touched by exactly one task at a time, so slots
  /// never alias across threads and the per-slot arithmetic is identical
  /// whether a block runs serial or parallel. Every array is sized once per
  /// solve; the heaps keep their storage across calls, so the kernels
  /// allocate nothing once they have grown. "Kept clean" arrays hold their
  /// fill value between calls: a kernel records each entry it writes in a
  /// touched list and resets exactly those on every exit, the throw
  /// included.
  struct Scratch {
    // dijkstra_to_targets
    std::vector<double> dist;      // settled distances, +inf elsewhere;
                                   // reassigned per call (build_cache
                                   // sorts all n nodes by it)
    std::vector<double> tent;      // heap keys (kept clean at +inf)
    std::vector<int> parent;       // tree arcs, meaningful at settled nodes
    std::vector<char> is_target;   // kept clean at 0
    std::vector<int> touched;      // nodes whose `tent` this call lowered
    MinHeap4 heap;
    // tree build and walk
    std::vector<double> node_vol;  // tree-volume push scratch (kept zeroed)
    std::vector<int> order;
    std::vector<double> cur_dist;  // cached-tree walk scratch
    // bidirectional_path, one entry per side (0 forward from s, 1 backward
    // from t)
    std::vector<double> bi_dist[2];    // tentative labels (kept clean: +inf)
    std::vector<int> bi_par[2];        // path arcs, forward orientation
                                       // (kept clean: -1)
    std::vector<char> bi_settled[2];   // kept clean: 0
    std::vector<int> bi_touched[2];    // nodes this call labelled
    MinHeap4 bi_heap[2];
    bool rebuilt = false;  // this slot's group re-ran a shortest-path build
  };

  const Graph* g_;
  std::vector<double> cap_;  ///< working per-arc capacities

  // Reusable per-solve state. `length_` doubles as the warm-start seed:
  // after a solve it holds the final length function.
  std::vector<double> length_;
  std::vector<double> flow_;
  std::vector<double> snap_flow_;
  std::vector<SourceGroup> groups_;
  std::vector<Scratch> scratch_;       // one slot per block position
  std::vector<TreeCache> tree_cache_;  // one per group
  std::vector<double> alpha_part_;     // per-group sweep terms, reduced in
                                       // group order after the barrier

  /// Dijkstra from `src` under the current lengths that stops once every
  /// sink of `targets` is settled (multi-sink groups). Leaves sc.dist (the
  /// exact distance of every settled node, +inf elsewhere) and sc.parent
  /// (the shortest-path tree arc into every settled node but `src`); every
  /// settled sink's tree path passes only through settled nodes, which is
  /// all the routing needs. Failed arcs carry length +inf and so never
  /// relax anything.
  void dijkstra_to_targets(int src,
                           const std::vector<std::pair<int, double>>& targets,
                           Scratch& sc);

  /// Exact shortest s->t path under the current lengths via bidirectional
  /// Dijkstra (single-sink groups): meet-in-the-middle
  /// explores two small balls instead of one big one — a large constant
  /// factor on expander-like topologies. Appends the path's (arc, vol)
  /// pairs to `arcs_out` in sink-to-source order (the TreeCache
  /// convention) and returns the exact distance; throws when t is
  /// unreachable.
  double bidirectional_path(int s, int t, double vol,
                            std::vector<std::pair<int, double>>& arcs_out,
                            Scratch& sc);
  bool has_warm_ = false;
};

}  // namespace tb::mcf
