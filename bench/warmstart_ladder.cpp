// Warm-start ladder comparison, the first entry in the bench trajectory:
// runs the fig04 TM-ladder grid twice in-process — cold (stateless
// per-cell solves) and warm (per-topology ThroughputEngine session chains,
// Sweep::warm_start) — verifies every warm value agrees with its cold
// counterpart within the combined certified gap, and writes a
// BENCH_warmstart.json timing record (cold/warm seconds and their ratio)
// for the CI perf-smoke job.
//
// Exit status is non-zero when a warm value drifts outside the certified
// tolerance. The speedup is recorded, not gated: warm differs from cold
// only by length seeding, which needs consecutive TMs with the same
// commodity set, and fig04's chain never has one — so on this grid warm
// runs bitwise the cold solves and the ratio is ~1.
//
// Knobs: TOPOBENCH_TARGET_SERVERS sizes the grid (fig04's default 128),
// TOPOBENCH_EPS the certified gap, argv[1] the JSON output path.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "exp/runner.h"
#include "exp/shard.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace tb;
  // The cold/warm comparison indexes the whole grid in one process; a
  // sharded slice would break it, so fail loudly instead of mismeasuring.
  if (exp::env_shard()) {
    std::cerr << "warmstart_ladder: TOPOBENCH_SHARD is not supported (the "
                 "cold-vs-warm comparison needs the whole grid)\n";
    return 1;
  }
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_warmstart.json";
  const double eps = exp::env_eps(0.05);
  const int target =
      exp::env_int("TOPOBENCH_TARGET_SERVERS", 128, 4, 1'000'000);

  exp::Sweep sweep;  // fig04's grid
  sweep.solve.epsilon = eps;
  sweep.base_seed = 11;
  for (const Family f : all_families()) {
    sweep.topologies.push_back(exp::representative_spec(f, target, /*seed=*/1));
  }
  sweep.tms = {exp::a2a_tm(), exp::random_matching_tm(5),
               exp::random_matching_tm(1), exp::longest_matching_tm()};

  // Fresh runner per mode: the in-process cache must not let the second
  // run answer from the first (warm and cold have distinct fingerprints,
  // but a shared runner would still blur the timing with allocator reuse).
  Timer timer;
  exp::Runner cold_runner;
  const exp::ResultSet cold = cold_runner.run(sweep, exp::RunOptions::from_env());
  const double cold_seconds = timer.seconds();

  sweep.warm_start = true;
  timer.reset();
  exp::Runner warm_runner;
  const exp::ResultSet warm = warm_runner.run(sweep, exp::RunOptions::from_env());
  const double warm_seconds = timer.seconds();

  // Equivalence: cold and warm are both certified within (1 + eps) of the
  // same optimum, so they agree within ~2*eps relative; allow slack for
  // the plateau guard's residual gap.
  const double tolerance = 2.5 * eps;
  double worst_dev = 0.0;
  bool values_ok = true;
  for (std::size_t i = 0; i < cold.size(); ++i) {
    const exp::CellResult& c = cold.rows()[i];
    const exp::CellResult& w = warm.rows()[i];
    const double dev =
        c.throughput > 0.0 ? std::abs(w.throughput / c.throughput - 1.0) : 0.0;
    worst_dev = std::max(worst_dev, dev);
    if (dev > tolerance) {
      values_ok = false;
      std::fprintf(stderr,
                   "FAIL %s/%s: warm %.6f vs cold %.6f (dev %.2f%% > %.2f%%)\n",
                   c.topology.c_str(), c.tm.c_str(), w.throughput, c.throughput,
                   dev * 100.0, tolerance * 100.0);
    }
  }

  const double speedup = warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;

  std::ofstream json(json_path);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\": \"warmstart_ladder\", \"grid\": \"fig04\", "
                "\"target_servers\": %d, \"epsilon\": %g, \"cells\": %zu, "
                "\"cold_seconds\": %.3f, \"warm_seconds\": %.3f, "
                "\"speedup\": %.3f, \"worst_value_dev\": %.5f, "
                "\"tolerance\": %.5f}\n",
                target, eps, cold.size(), cold_seconds, warm_seconds, speedup,
                worst_dev, tolerance);
  json << buf;
  json.close();
  std::cout << buf;

  if (!values_ok) {
    std::cerr << "warmstart_ladder: warm values drifted outside the certified "
                 "tolerance\n";
    return 1;
  }
  return 0;
}
