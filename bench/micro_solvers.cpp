// Micro-benchmarks (google-benchmark): the computational substrates —
// Garg-Konemann max concurrent flow, the exact simplex LP, Hungarian
// matching, topology generation and the spectral sweep. These are the
// knobs that determine how far the figure benches scale.
#include <benchmark/benchmark.h>

#include "core/registry.h"
#include "flow/flow_network.h"
#include "flow/max_flow.h"
#include "graph/spectral.h"
#include "matching/hungarian.h"
#include "mcf/garg_konemann.h"
#include "mcf/throughput.h"
#include "tm/synthetic.h"
#include "topo/fattree.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "topo/slimfly.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace tb;

void BM_GkAllToAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Network net = make_jellyfish(n, 6, 1, 1);
  const TrafficMatrix tm = all_to_all(net);
  mcf::GkOptions opts;
  opts.epsilon = 0.05;
  opts.pool = &ThreadPool::shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcf::GkSolver(net.graph).solve(tm, opts));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GkAllToAll)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_GkLongestMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Network net = make_jellyfish(n, 6, 1, 1);
  const TrafficMatrix tm = longest_matching(net);
  mcf::GkOptions opts;
  opts.epsilon = 0.05;
  opts.pool = &ThreadPool::shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcf::GkSolver(net.graph).solve(tm, opts));
  }
}
BENCHMARK(BM_GkLongestMatching)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_ExactLpThroughput(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Network net = make_hypercube(d);
  const TrafficMatrix tm = longest_matching(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcf::throughput_exact_lp(net.graph, tm));
  }
}
BENCHMARK(BM_ExactLpThroughput)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<double> w(static_cast<std::size_t>(n) * n);
  for (double& x : w) x = rng.next_double(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_weight_perfect_matching(w, n));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Hungarian)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_JellyfishGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t trial = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_jellyfish(n, 8, 1, mix_seed(1, trial++)));
  }
}
BENCHMARK(BM_JellyfishGeneration)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SlimFlyGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_slim_fly(13, 9));
  }
}
BENCHMARK(BM_SlimFlyGeneration)->Unit(benchmark::kMillisecond);

void BM_FiedlerVector(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Network net = make_jellyfish(n, 6, 1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fiedler_vector(net.graph));
  }
}
BENCHMARK(BM_FiedlerVector)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// Max-flow per-solve time on one large finalized registry instance
// (Jellyfish at the requested server count — the registry's biggest
// always-available family). One s-t solve per iteration on a reset
// network, exactly the cut battery's inner loop.
void BM_StMaxFlowHighestLabel(benchmark::State& state) {
  const int target = static_cast<int>(state.range(0));
  const Network net =
      family_representative(Family::Jellyfish, target, /*seed=*/1);
  flow::FlowNetwork fn(net.graph);
  const int s = 0;
  const int t = fn.num_nodes() - 1;
  for (auto _ : state) {
    fn.reset();
    benchmark::DoNotOptimize(flow::max_flow(fn, s, t));
  }
  state.counters["arcs"] = static_cast<double>(fn.num_arcs());
}
BENCHMARK(BM_StMaxFlowHighestLabel)
    ->Arg(96)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_LongestMatchingTm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Network net = make_jellyfish(n, 6, 1, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(longest_matching(net));
  }
}
BENCHMARK(BM_LongestMatchingTm)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
