#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "lp/simplex.h"
#include "mcf/engine.h"
#include "mcf/garg_konemann.h"
#include "mcf/min_heap.h"
#include "mcf/paths.h"
#include "mcf/throughput.h"
#include "tm/synthetic.h"
#include "topo/fattree.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tb {
namespace {

Graph ring(int n) {
  Graph g(n);
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  g.finalize();
  return g;
}

/// `v` in C99 hexfloat ("%a"), so a failed bit-exact comparison shows
/// every bit, in the same notation as the expected literals.
std::string hexfloat(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

TrafficMatrix single_flow(int s, int t, double amount = 1.0) {
  TrafficMatrix tm;
  tm.name = "single";
  tm.demands = {{s, t, amount}};
  return tm;
}

TEST(ExactLp, SingleFlowOnRingUsesBothDirections) {
  // Ring of 6, flow 0 -> 3: two arc-disjoint 3-hop paths, capacity 1 each
  // => throughput 2.
  const Graph g = ring(6);
  const auto r = mcf::throughput_exact_lp(g, single_flow(0, 3));
  EXPECT_NEAR(r.throughput, 2.0, 1e-7);
}

TEST(ExactLp, TwoOpposingFlowsShareCapacity) {
  const Graph g = ring(4);
  TrafficMatrix tm;
  tm.demands = {{0, 2, 1.0}, {2, 0, 1.0}};
  // Directed arcs: each direction has its own capacity, so both flows get 2.
  const auto r = mcf::throughput_exact_lp(g, tm);
  EXPECT_NEAR(r.throughput, 2.0, 1e-7);
}

TEST(ExactLp, BottleneckLimitsThroughput) {
  // Path graph 0-1-2: A2A-ish demands across the middle edge.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 2, 1.0}, {1, 2, 1.0}};
  // Arc 1->2 carries both flows: t * 2 <= 1 => t = 0.5.
  const auto r = mcf::throughput_exact_lp(g, tm);
  EXPECT_NEAR(r.throughput, 0.5, 1e-7);
}

TEST(ExactLp, RespectsCapacities) {
  Graph g(2);
  g.add_edge(0, 1, 3.5);
  g.finalize();
  const auto r = mcf::throughput_exact_lp(g, single_flow(0, 1));
  EXPECT_NEAR(r.throughput, 3.5, 1e-7);
}

TEST(ExactLp, HypercubeAllToAllClosedForm) {
  // d-cube, A2A with per-node egress (n-1)/n: by symmetry & edge-
  // transitivity every arc is equally loaded; total volume per unit t is
  // sum of demand*distance = n * avg_dist * (n-1)/n ... the LP should hit
  // the volumetric bound exactly (hypercube A2A saturates all links).
  const Network hc = make_hypercube(3);
  const TrafficMatrix tm = all_to_all(hc);
  const auto r = mcf::throughput_exact_lp(hc.graph, tm);
  const double vol = mcf::volumetric_upper_bound(hc.graph, tm);
  EXPECT_NEAR(r.throughput, vol, 1e-6);
  EXPECT_GT(r.throughput, 0.0);
}

TEST(ExactLp, FatTreeIsNonBlocking) {
  // k=4 fat tree, per-ToR hose units: every ToR has k/2 = 2 uplinks, and
  // the Clos fabric is nonblocking, so a unit-row TM (LM) achieves exactly
  // t = 2, and A2A (row sum (H-1)/H) achieves 2 * H/(H-1).
  const Network ft = make_fat_tree(4);
  const TrafficMatrix a2a = all_to_all(ft);
  const auto r = mcf::throughput_exact_lp(ft.graph, a2a);
  const double h = 8.0;  // edge switches
  EXPECT_NEAR(r.throughput, 2.0 * h / (h - 1.0), 1e-6);

  const TrafficMatrix lm = longest_matching(ft);
  const auto rlm = mcf::throughput_exact_lp(ft.graph, lm);
  EXPECT_NEAR(rlm.throughput, 2.0, 1e-6);
}

TEST(ExactLp, PivotsAndThroughputBitsArePinned) {
  // Pins the simplex's pivot sequence across commits: exact pivot counts
  // and throughput bits, with solver_threads 1 and 0 (the simplex is serial
  // and ignores it). hypercube(4) x A2A has 368 rows. A change that moves
  // the pivot sequence updates these values and says why in CHANGES.md.
  struct Case {
    const char* name;
    const Network* net;
    TrafficMatrix tm;
    long pivots;
    double throughput;
  };
  const Network hc = make_hypercube(4);
  const Network jf = make_jellyfish(16, 4, 1, 4);
  const Case cases[] = {
      {"hypercube(4) a2a", &hc, all_to_all(hc), 426, 0x1.0000000000024p+1},
      {"jellyfish lm", &jf, longest_matching(jf), 266, 0x1p+0},
      {"jellyfish rm", &jf, random_matching(jf, 1, 3), 565,
       0x1.5555555555561p+0},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 0}) {
      SCOPED_TRACE(std::string(c.name) + " @ " + std::to_string(threads));
      mcf::SolveOptions opts;
      opts.kind = mcf::SolverKind::ExactLP;
      opts.solver_threads = threads;
      const auto r = mcf::ThroughputEngine(*c.net).solve(c.tm, opts);
      ASSERT_EQ(r.solver, "exact-lp");
      EXPECT_EQ(r.stats.pivots, c.pivots);
      EXPECT_EQ(hexfloat(r.throughput), hexfloat(c.throughput));
    }
  }
}

/// Reference for throughput_exact_lp's LP, solved by a plain lp::solve from
/// the Big-M all-artificial start. Same variables (t, then one flow per
/// source and arc) and rows (capacities, then conservation per source and
/// node), built from the definition rather than through the kernel.
mcf::ThroughputResult big_m_exact_lp(const Graph& g, const TrafficMatrix& tm) {
  std::map<int, std::map<int, double>> by_source;
  for (const Demand& d : tm.demands) {
    if (d.src != d.dst && d.amount > 0.0) by_source[d.src][d.dst] += d.amount;
  }
  lp::Problem prob;
  const int t_var = prob.add_var(1.0);
  std::map<int, int> base_of_source;
  for (const auto& entry : by_source) {
    base_of_source[entry.first] = prob.num_vars;
    for (int a = 0; a < g.num_arcs(); ++a) prob.add_var(0.0);
  }
  for (int a = 0; a < g.num_arcs(); ++a) {
    lp::Row row;
    row.rhs = g.arc_cap(a);
    for (const auto& [s, base] : base_of_source) {
      row.terms.emplace_back(base + a, 1.0);
    }
    prob.add_row(std::move(row));
  }
  for (const auto& [s, sinks] : by_source) {
    const int base = base_of_source[s];
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (v == s) continue;
      lp::Row row;
      row.sense = lp::Sense::EQ;
      for (const int a : g.out_arcs(v)) {
        row.terms.emplace_back(base + Graph::reverse_arc(a), 1.0);
        row.terms.emplace_back(base + a, -1.0);
      }
      const auto it = sinks.find(v);
      if (it != sinks.end()) row.terms.emplace_back(t_var, -it->second);
      prob.add_row(std::move(row));
    }
  }
  const lp::Result sol = lp::solve(prob);
  EXPECT_EQ(sol.status, lp::Status::Optimal);
  mcf::ThroughputResult r;
  r.throughput = sol.x.at(static_cast<std::size_t>(t_var));
  r.upper_bound = r.throughput;
  r.solver = "exact-lp";
  r.stats.pivots = sol.iterations;
  return r;
}

/// Every registry ladder instance of 4-48 servers that Auto sends to
/// ExactLP and `pick` selects, x A2A / RM(1) / LM: the default
/// spanning-tree start and the Big-M start reach the same optimum, and the
/// tree start pivots less in total. A tree-started solve is still a cold
/// solve (warm_start false). Returns the number of cells compared.
int expect_tree_start_agrees(
    const std::function<bool(const std::string&)>& pick) {
  long tree_pivots = 0;
  long big_m_pivots = 0;
  int cells = 0;
  for (const Family f : all_families()) {
    for (const Network& net : family_instances(f, 4, 48, 1)) {
      if (!pick(net.name)) continue;
      for (const TrafficMatrix& tm :
           {all_to_all(net), random_matching(net, 1, 1), longest_matching(net)}) {
        const auto tree = mcf::ThroughputEngine(net).solve(tm);
        if (tree.solver != "exact-lp") continue;
        SCOPED_TRACE(net.name + " " + tm.name);
        const auto big_m = big_m_exact_lp(net.graph, tm);
        EXPECT_FALSE(tree.stats.warm_start);
        EXPECT_NEAR(tree.throughput, big_m.throughput,
                    1e-9 * big_m.throughput);
        tree_pivots += tree.stats.pivots;
        big_m_pivots += big_m.stats.pivots;
        ++cells;
      }
    }
  }
  EXPECT_LT(tree_pivots, big_m_pivots);
  return cells;
}

// DCell(n=5,l=1)'s three cells take as long as all the others together,
// so they run as a test of their own, in parallel under ctest -j.
constexpr const char* kLargestDCell = "DCell(n=5,l=1)";

TEST(ExactLp, TreeStartAgreesWithBigMStart) {
  EXPECT_EQ(expect_tree_start_agrees([](const std::string& name) {
              return name != kLargestDCell;
            }),
            24);

  // A degraded network: Hypercube(d=3) with edge 0 (between nodes 0 and 1)
  // failed. The engine hands ExactLP the surviving graph, which has no arc
  // for the failed link, so neither the LP nor its starting trees see it.
  // Pinned pivots.
  const Network hc = make_hypercube(3);
  ASSERT_EQ(hc.graph.edge_u(0), 0);
  ASSERT_EQ(hc.graph.edge_v(0), 1);
  mcf::ThroughputEngine engine(hc);
  mcf::ScenarioSpec spec;
  spec.failed_edges = {0};
  engine.apply_scenario(spec);
  const Graph& surviving = engine.surviving_graph();
  ASSERT_EQ(surviving.num_edges(), hc.graph.num_edges() - 1);
  ASSERT_FALSE(surviving.has_edge(0, 1));
  const std::pair<TrafficMatrix, long> degraded[] = {
      {all_to_all(hc), 23}, {longest_matching(hc), 27}};
  for (const auto& [tm, pivots] : degraded) {
    SCOPED_TRACE("degraded " + tm.name);
    const auto tree = mcf::throughput_exact_lp(surviving, tm);
    const auto big_m = big_m_exact_lp(surviving, tm);
    EXPECT_NEAR(tree.throughput, big_m.throughput, 1e-9 * big_m.throughput);
    EXPECT_EQ(tree.stats.pivots, pivots);
  }
}

TEST(ExactLp, TreeStartAgreesWithBigMStartOnLargestDCell) {
  EXPECT_EQ(expect_tree_start_agrees([](const std::string& name) {
              return name == kLargestDCell;
            }),
            3);
}

TEST(ExactLp, TreeStartKeepsArtificialsOfUnreachableRows) {
  // Two rings, demands inside the first only: every conservation row of a
  // second-ring node is unreachable from its source and keeps its
  // artificial in the starting basis, at value 0.
  Graph g(8);
  for (int v = 0; v < 4; ++v) {
    g.add_edge(v, (v + 1) % 4);
    g.add_edge(4 + v, 4 + (v + 1) % 4);
  }
  g.finalize();
  TrafficMatrix tm;
  tm.demands = {{0, 2, 1.0}, {1, 3, 1.0}, {2, 0, 1.0}};
  // Fewer pivots shows the tree basis was accepted: a rejected candidate
  // runs the Big-M start itself.
  const auto tree = mcf::throughput_exact_lp(g, tm);
  const auto big_m = big_m_exact_lp(g, tm);
  EXPECT_NEAR(tree.throughput, 1.0, 1e-9);
  EXPECT_NEAR(tree.throughput, big_m.throughput, 1e-9);
  EXPECT_LT(tree.stats.pivots, big_m.stats.pivots);
}

/// Runs a failures-mode `sweep` and checks each degraded cell against its
/// instance, rebuilt from the runner's seeding contract (exp/runner.h):
/// with cut bounds, the cut bound is at least the throughput; an ExactLP
/// cell (pivots > 0) agrees with the Big-M reference on the engine's
/// surviving graph and perturbed TM, or, when the scenario leaves the
/// instance intact, equals its baseline. Returns the number of ExactLP
/// cells.
int expect_degraded_cells_agree(const exp::Sweep& sweep) {
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  const std::vector<exp::Cell> cells = exp::expand(sweep);
  const std::size_t per = sweep.scenarios.size();
  int compared = 0;
  for (const exp::CellResult& r : rs.rows()) {
    SCOPED_TRACE(r.topology + " " + r.tm + " " + r.scenario);
    if (sweep.cut_bounds) {
      EXPECT_GE(r.cut_bound, r.throughput * (1.0 - 1e-9)) << r.cut_method;
    }
    if (r.pivots == 0) continue;  // a GK or a disconnected cell
    const exp::Cell& c = cells[r.cell];
    const std::shared_ptr<const Network> net = sweep.topologies[c.topo].build();
    const std::size_t floor = r.cell / per * per;
    const TrafficMatrix tm = sweep.tms[c.tm].build(
        *net, mix_seed(mix_seed(sweep.base_seed, floor), 0));
    mcf::ScenarioSpec spec = sweep.scenarios[c.scenario].spec;
    spec.seed = mix_seed(mix_seed(sweep.base_seed, r.cell), 2);
    mcf::ThroughputEngine engine(*net);
    engine.apply_scenario(spec);
    ++compared;
    const Graph& surviving = engine.surviving_graph();
    if (&surviving == &net->graph && spec.tm_scale == 1.0) {
      EXPECT_EQ(r.throughput_drop, 0.0);
      continue;
    }
    const auto big_m = big_m_exact_lp(surviving, engine.scenario_tm(tm));
    EXPECT_NEAR(r.throughput, big_m.throughput, 1e-9 * big_m.throughput);
  }
  return compared;
}

TEST(ScenarioExactLp, HypercubeGrowthSweepSolvesTheSurvivingGraph) {
  // The first two of 3 stages install 16 and 24 of Hypercube(d=5)'s 32
  // switches. ExactLP once took the intact graph with the failed arcs'
  // capacities overridden to 0, and this sweep stopped at the simplex
  // iteration limit after minutes; on the surviving graph the partial
  // stages take well under a second.
  exp::Sweep sweep;
  sweep.topologies = {exp::instance_spec(make_hypercube(5))};
  sweep.tms = {exp::a2a_tm()};
  sweep.solve.kind = mcf::SolverKind::ExactLP;
  sweep.scenarios = exp::growth_scenarios(3);
  EXPECT_EQ(expect_degraded_cells_agree(sweep), 3);
}

TEST(ScenarioExactLp, DegradedCellsRespectCutBoundsAndBigM) {
  // Registry instances of at most 48 servers under link, group, degrade,
  // surge and growth scenarios: the cut bound priced on each degraded
  // network bounds its throughput, and the ExactLP cells match Big-M.
  exp::Sweep sweep;
  sweep.topologies = exp::ladder_specs(all_families(), 4, 48, 1);
  sweep.tms = {exp::a2a_tm(), exp::random_matching_tm(1)};
  sweep.solve.epsilon = 0.1;
  sweep.cut_bounds = true;
  sweep.scenarios = exp::random_failure_scenarios({0.1});
  sweep.scenarios.push_back(exp::correlated_group_scenarios({0.25}).front());
  sweep.scenarios.push_back(exp::degrade_scenario(0.5));
  sweep.scenarios.push_back(exp::surge_scenario(1.5));
  sweep.scenarios.push_back(exp::growth_scenarios(2).front());
  EXPECT_GT(expect_degraded_cells_agree(sweep), 0);
}

TEST(GargKonemann, MatchesExactOnSmallInstances) {
  const Network hc = make_hypercube(3);
  for (const auto* tm_name : {"a2a", "rm", "lm"}) {
    TrafficMatrix tm;
    if (std::string(tm_name) == "a2a") {
      tm = all_to_all(hc);
    } else if (std::string(tm_name) == "rm") {
      tm = random_matching(hc, 1, 3);
    } else {
      tm = longest_matching(hc);
    }
    const double exact = mcf::throughput_exact_lp(hc.graph, tm).throughput;
    mcf::GkOptions opts;
    opts.epsilon = 0.02;
    const mcf::GkResult gk = mcf::GkSolver(hc.graph).solve(tm, opts);
    EXPECT_GE(gk.throughput, exact * (1.0 - 0.025)) << tm_name;
    EXPECT_LE(gk.throughput, exact * (1.0 + 1e-6)) << tm_name;
    EXPECT_GE(gk.upper_bound, exact * (1.0 - 1e-6)) << tm_name;
  }
}

TEST(GargKonemann, CertifiedGapHolds) {
  // The tight-epsilon inputs put (2/eps) ln m past 708, where the textbook
  // initial length delta underflows unless it is floored.
  struct Input {
    const char* name;
    Network net;
    double epsilon;
  };
  const Input inputs[] = {
      {"jellyfish(40,5) eps=0.05", make_jellyfish(40, 5, 1, 11), 0.05},
      {"hypercube(6) eps=0.01", make_hypercube(6), 0.01},
      {"hypercube(6) eps=0.005", make_hypercube(6), 0.005},
      {"fat_tree(8) eps=0.01", make_fat_tree(8), 0.01},
  };
  for (const Input& in : inputs) {
    const TrafficMatrix tm = longest_matching(in.net);
    mcf::GkOptions opts;
    opts.epsilon = in.epsilon;
    const mcf::GkResult r = mcf::GkSolver(in.net.graph).solve(tm, opts);
    EXPECT_GT(r.throughput, 0.0) << in.name;
    EXPECT_LE(r.throughput, r.upper_bound * (1.0 + 1e-9)) << in.name;
    EXPECT_LE(r.upper_bound, r.throughput * (1.0 + opts.epsilon + 1e-9))
        << in.name;
  }
}

TEST(GargKonemann, FlowIsFeasible) {
  const Network jf = make_jellyfish(24, 4, 1, 5);
  const TrafficMatrix tm = random_matching(jf, 2, 7);
  const mcf::GkResult r = mcf::GkSolver(jf.graph).solve(tm);
  for (int a = 0; a < jf.graph.num_arcs(); ++a) {
    EXPECT_LE(r.arc_flow[static_cast<std::size_t>(a)],
              jf.graph.arc_cap(a) * (1.0 + 1e-9));
  }
}

TEST(GargKonemann, DemandScalingIsLinear) {
  // Throughput of c*TM must be throughput(TM)/c.
  const Network hc = make_hypercube(4);
  TrafficMatrix tm = longest_matching(hc);
  const double base = mcf::GkSolver(hc.graph).solve(tm).throughput;
  tm.scale(4.0);
  const double quarter = mcf::GkSolver(hc.graph).solve(tm).throughput;
  EXPECT_NEAR(quarter, base / 4.0, base * 0.02);
}

TEST(GargKonemann, PhasesDijkstrasAndThroughputBitsArePinned) {
  // Pins the GK solve's trajectory across commits: exact phase and
  // shortest-path counts plus the bits of both certificates, serial and on
  // a dedicated 2-worker pool. A2A gives every source many sinks (the
  // multi-target Dijkstra); LM and RM(1) give one sink per source (the
  // bidirectional search). A change that moves the trajectory updates
  // these values and says why.
  struct Case {
    const char* name;
    const Network* net;
    TrafficMatrix tm;
    long phases;
    long dijkstras;
    double throughput;
    double upper_bound;
  };
  const Network jf = family_representative(Family::Jellyfish, 64, 1);
  const Network sf = family_representative(Family::SlimFly, 64, 1);
  const Network ft = family_representative(Family::FatTree, 64, 1);
  const Case cases[] = {
      {"jellyfish a2a", &jf, all_to_all(jf), 102, 2027, 0x1.c7db21198edfcp+1,
       0x1.de3a2275338aep+1},
      {"jellyfish lm", &jf, longest_matching(jf), 778, 27281,
       0x1.32bd1dfb632bdp+1, 0x1.4107ab8a4ac4ep+1},
      {"slimfly rm1", &sf, random_matching(sf, 1, 7), 789, 21638,
       0x1.39c518eb9c519p+1, 0x1.4935f9d5f500cp+1},
      {"fattree a2a", &ft, all_to_all(ft), 944, 7312, 0x1.95dad5b93466ep+1,
       0x1.aa21f95805d59p+1},
      {"fattree lm", &ft, longest_matching(ft), 104, 1632,
       0x1.71c71c71c71c7p+1, 0x1.833b38a94d254p+1},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 2}) {
      SCOPED_TRACE(std::string(c.name) + " @ " + std::to_string(threads));
      mcf::SolveOptions opts;
      opts.kind = mcf::SolverKind::GargKonemann;
      opts.epsilon = 0.05;
      opts.solver_threads = threads;
      const auto r = mcf::ThroughputEngine(*c.net).solve(c.tm, opts);
      ASSERT_EQ(r.solver, "garg-konemann");
      EXPECT_EQ(r.stats.phases, c.phases);
      EXPECT_EQ(r.stats.dijkstras, c.dijkstras);
      EXPECT_EQ(hexfloat(r.throughput), hexfloat(c.throughput));
      EXPECT_EQ(hexfloat(r.upper_bound), hexfloat(c.upper_bound));
    }
  }
}

TEST(GargKonemann, DisconnectedThrowLeavesNoStaleLabels) {
  // The shortest-path kernels keep their label arrays clean between calls
  // by resetting what each call touched; the reset must also run when a
  // call throws. Isolate a node so some demand is disconnected, let solve
  // throw, restore the capacities, and the next solve on the same session
  // must be bitwise a fresh solver's. LM reaches the bidirectional search,
  // A2A the multi-target Dijkstra.
  const Network hc = make_hypercube(4);
  const Graph& g = hc.graph;
  ThreadPool pool(2);
  for (const auto* tm_name : {"lm", "a2a"}) {
    const TrafficMatrix tm = std::string(tm_name) == "lm"
                                 ? longest_matching(hc)
                                 : all_to_all(hc);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(std::string(tm_name) + (p ? " pooled" : " serial"));
      mcf::GkOptions opts;
      opts.epsilon = 0.1;
      opts.pool = p;
      const mcf::GkResult fresh = mcf::GkSolver(g).solve(tm, opts);
      mcf::GkSolver session(g);
      const int isolated = 5;
      std::vector<int> cut;
      for (const int a : g.out_arcs(isolated)) cut.push_back(a >> 1);
      for (const int e : cut) session.set_edge_capacity(e, 0.0);
      EXPECT_THROW(session.solve(tm, opts), std::runtime_error);
      for (const int e : cut) session.set_edge_capacity(e, g.edge_cap(e));
      const mcf::GkResult again = session.solve(tm, opts);
      EXPECT_EQ(hexfloat(again.throughput), hexfloat(fresh.throughput));
      EXPECT_EQ(hexfloat(again.upper_bound), hexfloat(fresh.upper_bound));
      EXPECT_EQ(again.phases, fresh.phases);
      EXPECT_EQ(again.dijkstras, fresh.dijkstras);
      EXPECT_EQ(again.arc_flow, fresh.arc_flow);
    }
  }
}

TEST(MinHeap4, PopsInStdPriorityQueueOrder) {
  // Seeded push/pop streams over few distinct keys and nodes, so equal
  // keys and duplicate (key, node) entries are common: the 4-ary heap must
  // expose the same top and pop the same sequence as the binary
  // std::priority_queue the GK kernels used before it.
  using Entry = std::pair<double, int>;
  mcf::MinHeap4 heap;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ref;
    heap.clear();  // reused across streams, as a scratch slot reuses it
    const int distinct_keys = 1 + static_cast<int>(rng.next_u64(8));
    for (int op = 0; op < 2000; ++op) {
      if (ref.empty() || rng.next_bool(0.55)) {
        const double key =
            0.25 * static_cast<double>(rng.next_u64(
                       static_cast<std::uint64_t>(distinct_keys)));
        const int node = static_cast<int>(rng.next_u64(6));
        ref.emplace(key, node);
        heap.push(key, node);
      } else {
        ref.pop();
        heap.pop();
      }
      ASSERT_EQ(heap.empty(), ref.empty());
      if (!ref.empty()) {
        ASSERT_EQ(heap.top().key, ref.top().first) << "op " << op;
        ASSERT_EQ(heap.top().node, ref.top().second) << "op " << op;
      }
    }
    while (!ref.empty()) {
      ASSERT_FALSE(heap.empty());
      ASSERT_EQ(heap.top().key, ref.top().first);
      ASSERT_EQ(heap.top().node, ref.top().second);
      ref.pop();
      heap.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(Throughput, AutoDispatchesBySize) {
  const Network small = make_hypercube(3);
  const auto rs = mcf::ThroughputEngine(small).solve(all_to_all(small));
  EXPECT_EQ(rs.solver, "exact-lp");
  const Network big = make_jellyfish(64, 5, 1, 2);
  const auto rb = mcf::ThroughputEngine(big).solve(longest_matching(big));
  EXPECT_EQ(rb.solver, "garg-konemann");
}

TEST(Throughput, SolverStatsSplitPivotsFromPhases) {
  // The two engines do different work: an ExactLP solve reports simplex
  // pivots and no GK counters; a GK solve reports phases and Dijkstra
  // counts and no pivots. Cold one-shot solves are never warm-started.
  const Network small = make_hypercube(3);
  const auto lp = mcf::ThroughputEngine(small).solve(all_to_all(small));
  EXPECT_GT(lp.stats.pivots, 0);
  EXPECT_EQ(lp.stats.phases, 0);
  EXPECT_EQ(lp.stats.dijkstras, 0);
  EXPECT_FALSE(lp.stats.warm_start);

  const Network big = make_jellyfish(64, 5, 1, 2);
  const TrafficMatrix lm = longest_matching(big);
  const auto gk = mcf::ThroughputEngine(big).solve(lm);
  EXPECT_EQ(gk.stats.pivots, 0);
  EXPECT_GT(gk.stats.phases, 0);
  EXPECT_GT(gk.stats.dijkstras, gk.stats.phases);
  // Tree reuse: a source re-runs its shortest-path search only when its
  // cached tree went stale (or at an exact sweep), so there are fewer
  // Dijkstras than one per source per phase.
  std::set<int> sources;
  for (const Demand& d : lm.demands) {
    if (d.amount > 0.0 && d.src != d.dst) sources.insert(d.src);
  }
  EXPECT_LT(gk.stats.dijkstras,
            static_cast<long>(sources.size()) * gk.stats.phases);
  EXPECT_FALSE(gk.stats.warm_start);
}

TEST(Throughput, VolumetricBoundDominates) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Network jf = make_jellyfish(20, 4, 1, seed);
    const TrafficMatrix tm = longest_matching(jf);
    const auto r = mcf::ThroughputEngine(jf).solve(tm);
    EXPECT_LE(r.throughput,
              mcf::volumetric_upper_bound(jf.graph, tm) * (1.0 + 1e-9));
  }
}

TEST(Throughput, Theorem2LowerBoundHolds) {
  // Any hose TM achieves >= T_A2A / 2: check LM against it.
  for (const std::uint64_t seed : {4ULL, 9ULL}) {
    const Network jf = make_jellyfish(16, 4, 1, seed);
    mcf::ThroughputEngine engine(jf);
    const double a2a = engine.solve(all_to_all(jf)).throughput;
    const double lm = engine.solve(longest_matching(jf)).throughput;
    EXPECT_GE(lm, a2a / 2.0 * (1.0 - 1e-6));
  }
}

TEST(Throughput, TmOrderingA2aRmLm) {
  // Paper Fig 4: T_A2A >= T_RM >= T_LM for every network.
  const Network jf = make_jellyfish(24, 5, 1, 21);
  mcf::ThroughputEngine engine(jf);
  const double a2a = engine.solve(all_to_all(jf)).throughput;
  const double rm = engine.solve(random_matching(jf, 1, 3)).throughput;
  const double lm = engine.solve(longest_matching(jf)).throughput;
  EXPECT_GE(a2a * (1.0 + 0.05), rm);
  EXPECT_GE(rm * (1.0 + 0.05), lm);
}

TEST(Paths, KShortestOnRing) {
  // A ring has exactly two loopless paths between any pair; asking for 3
  // must return only those two, shortest first.
  const Graph g = ring(6);
  const auto paths = mcf::k_shortest_paths(g, 0, 2, 3);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].size(), 2u);  // 0-1-2
  EXPECT_EQ(paths[1].size(), 4u);  // 0-5-4-3-2
}

TEST(Paths, PathsAreValidAndLoopless) {
  const Network jf = make_jellyfish(16, 4, 1, 13);
  const auto paths = mcf::k_shortest_paths(jf.graph, 0, 9, 6);
  ASSERT_FALSE(paths.empty());
  for (const auto& p : paths) {
    int at = 0;
    std::set<int> visited{0};
    for (const int a : p) {
      EXPECT_EQ(jf.graph.arc_from(a), at);
      at = jf.graph.arc_to(a);
      EXPECT_TRUE(visited.insert(at).second) << "loop in path";
    }
    EXPECT_EQ(at, 9);
  }
}

TEST(Paths, RestrictedLpNeverExceedsUnrestricted) {
  const Network hc = make_hypercube(3);
  const TrafficMatrix tm = random_matching(hc, 1, 17);
  const double full = mcf::throughput_exact_lp(hc.graph, tm).throughput;
  for (const int k : {1, 2, 4}) {
    const auto sets = mcf::build_path_sets(hc.graph, tm, k);
    const double restricted = mcf::path_restricted_throughput(hc.graph, sets);
    EXPECT_LE(restricted, full * (1.0 + 1e-7)) << "k=" << k;
    if (k >= 4) {
      // With enough paths the restriction should nearly close the gap.
      EXPECT_GE(restricted, full * 0.7);
    }
  }
}

TEST(Throughput, AutoDispatchSizeGuardDoesNotOverflow) {
  // Regression: num_sources * num_arcs used to be formed in `long` x `int`
  // arithmetic, which wraps on ILP32 targets for paper-scale instances and
  // silently selected ExactLP. Synthetic large counts: 70k sources x 70k
  // arcs is ~4.9e9, which wraps to a small positive value in 32 bits.
  EXPECT_FALSE(mcf::lp_size_within(70'000, 70'000, 4096));
  // 2^16 x 2^16 = 2^32 wraps to exactly 0 in 32-bit arithmetic.
  EXPECT_FALSE(mcf::lp_size_within(65'536, 65'536, 4096));
  // Genuinely small instances still pass.
  EXPECT_TRUE(mcf::lp_size_within(8, 512, 4096));
  EXPECT_FALSE(mcf::lp_size_within(9, 512, 4096));
}

TEST(Paths, CountingEstimateUnderestimatesLp) {
  // The Yuan-style counting estimate is pessimistic vs the exact LP on the
  // same path set (the Fig 15 methodological point).
  const Network jf = make_jellyfish(20, 4, 1, 23);
  const TrafficMatrix tm = random_matching(jf, 1, 29);
  const auto sets = mcf::build_path_sets(jf.graph, tm, 4);
  const double lp = mcf::path_restricted_throughput(jf.graph, sets);
  const auto est = mcf::counting_throughput(jf.graph, sets);
  EXPECT_LE(est.minimum, lp * (1.0 + 1e-7));
}

}  // namespace
}  // namespace tb
