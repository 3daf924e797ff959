// Intra-solve parallel scaling, the threaded-determinism proof for the
// bench trajectory: runs the fig04 TM-ladder grid three times in-process
// with SolveOptions::solver_threads = 1 (fully serial solver paths), 2,
// and 4 (dedicated worker pools), on a serial runner so the solver-level
// parallelism is the only concurrency. Every threaded row must be
// field-for-field bitwise identical to the serial one — throughput values,
// GK phase/Dijkstra counters, simplex pivots — which is the engine's
// determinism contract (see garg_konemann.h); the wall-clock ratio is then
// a pure intra-solve speedup, recorded in a BENCH_parallel.json record for
// the CI perf-smoke job.
//
// Exit status is non-zero when any threaded value deviates from serial, or
// when the machine has >= 4 hardware threads and the 4-thread speedup falls
// below TOPOBENCH_MIN_SPEEDUP (default 1.5; the gate is skipped — with a
// note in the JSON — on smaller hosts, where a wall-clock speedup is
// physically impossible).
//
// Knobs: TOPOBENCH_TARGET_SERVERS sizes the grid (fig04's default 128),
// TOPOBENCH_EPS the certified gap, argv[1] the JSON output path.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.h"
#include "exp/shard.h"
#include "util/env.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace tb;
  // The serial-vs-threaded comparison needs the whole grid in one process;
  // a sharded slice would break it, so fail loudly instead of mismeasuring.
  if (exp::env_shard()) {
    std::cerr << "parallel_scaling: TOPOBENCH_SHARD is not supported (the "
                 "scaling comparison needs the whole grid)\n";
    return 1;
  }
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  const double eps = exp::eps_knob(0.05);
  const double min_speedup =
      env::double_knob("TOPOBENCH_MIN_SPEEDUP", 1.5, 0.0,
                       std::numeric_limits<double>::infinity());
  const int target = exp::target_servers_knob(128);

  exp::Sweep sweep;  // fig04's grid
  sweep.solve.epsilon = eps;
  sweep.base_seed = 11;
  for (const Family f : all_families()) {
    sweep.topologies.push_back(exp::representative_spec(f, target, /*seed=*/1));
  }
  sweep.tms = {exp::a2a_tm(), exp::random_matching_tm(5),
               exp::random_matching_tm(1), exp::longest_matching_tm()};

  // One run per thread count on a cell-serial runner (fresh per run: the
  // in-process cache ignores solver_threads by design, so a shared runner
  // would answer the later runs from the first). The solver pool is the
  // only concurrency, so the timing ratio isolates intra-solve scaling.
  const int thread_counts[] = {1, 2, 4};
  std::vector<exp::ResultSet> results;
  std::vector<double> seconds;
  for (const int threads : thread_counts) {
    sweep.solve.solver_threads = threads;
    exp::Runner runner(/*parallel=*/false);
    Timer timer;
    results.push_back(runner.run(sweep, exp::RunOptions::from_env()));
    seconds.push_back(timer.seconds());
  }

  bool identical = true;
  for (std::size_t mode = 1; mode < results.size(); ++mode) {
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      const exp::CellResult& s = results[0].rows()[i];
      const exp::CellResult& t = results[mode].rows()[i];
      // Everything except the configuration echo column must match
      // bitwise; == on the doubles is the point, not an oversight.
      if (t.throughput != s.throughput || t.phases != s.phases ||
          t.dijkstras != s.dijkstras || t.pivots != s.pivots ||
          t.warm != s.warm) {
        identical = false;
        std::fprintf(stderr,
                     "FAIL %s/%s at %d threads: throughput %.17g vs %.17g, "
                     "phases %ld vs %ld, dijkstras %ld vs %ld\n",
                     s.topology.c_str(), s.tm.c_str(), thread_counts[mode],
                     t.throughput, s.throughput, t.phases, s.phases,
                     t.dijkstras, s.dijkstras);
      }
    }
  }

  const double speedup2 = seconds[1] > 0.0 ? seconds[0] / seconds[1] : 0.0;
  const double speedup4 = seconds[2] > 0.0 ? seconds[0] / seconds[2] : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gate_active = hw >= 4;

  std::ofstream json(json_path);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\": \"parallel_scaling\", \"grid\": \"fig04\", "
                "\"target_servers\": %d, \"epsilon\": %g, \"cells\": %zu, "
                "\"serial_seconds\": %.3f, \"two_seconds\": %.3f, "
                "\"four_seconds\": %.3f, \"speedup2\": %.3f, "
                "\"speedup4\": %.3f, \"bitwise_identical\": %s, "
                "\"hardware_threads\": %u, \"speedup_gate\": %.2f, "
                "\"gate_active\": %s}\n",
                target, eps, results[0].size(), seconds[0], seconds[1],
                seconds[2], speedup2, speedup4,
                identical ? "true" : "false", hw, min_speedup,
                gate_active ? "true" : "false");
  json << buf;
  json.close();
  std::cout << buf;

  if (!identical) {
    std::cerr << "parallel_scaling: threaded solves are not bitwise "
                 "identical to serial\n";
    return 1;
  }
  if (gate_active && speedup4 < min_speedup) {
    std::fprintf(stderr,
                 "parallel_scaling: 4-thread speedup %.2fx below required "
                 "%.2fx\n",
                 speedup4, min_speedup);
    return 1;
  }
  if (!gate_active) {
    std::fprintf(stderr,
                 "parallel_scaling: note — only %u hardware threads, "
                 "speedup gate skipped (bitwise check still enforced)\n",
                 hw);
  }
  return 0;
}
