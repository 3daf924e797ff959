// Flow-level parallel scaling, the cut-engine counterpart of
// parallel_scaling: runs the exact-cut workload — global_min_cut (the
// CutBattery fanning n-1 terminal pairs over a dedicated pool) plus
// sparsest_cut_st_mincut (sampled exact s-t cuts) — over the registry's
// family representatives three times in-process with
// flow::FlowOptions::threads = 1, 2 and 4. Every threaded result must be
// bitwise identical to the serial one — cut values, source sides, push/
// relabel counters — which is the battery's determinism contract
// (flow/cut_battery.h); the wall-clock ratio is then a pure flow-level
// speedup, recorded in a BENCH_flow_parallel.json record for CI perf-smoke.
//
// Exit status is non-zero when any threaded value deviates from serial, or
// when the machine has >= 4 hardware threads and the 4-thread speedup falls
// below TOPOBENCH_MIN_SPEEDUP (default 1.5; the gate is skipped — with a
// note in the JSON — on smaller hosts, where a wall-clock speedup is
// physically impossible).
//
// Knobs: TOPOBENCH_TARGET_SERVERS sizes the instances (default 96),
// TOPOBENCH_MIN_SPEEDUP the gate, argv[1] the JSON output path.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "cuts/exact_cuts.h"
#include "exp/shard.h"
#include "exp/sweep.h"
#include "flow/min_cut.h"
#include "tm/synthetic.h"
#include "util/env.h"
#include "util/timer.h"

namespace {

/// One family's exact-cut answers under a thread configuration.
struct FamilyCuts {
  tb::flow::StCut global;
  tb::cuts::CutResult sparsest;
};

bool stats_eq(const tb::flow::MaxFlowStats& a, const tb::flow::MaxFlowStats& b) {
  return a.pushes == b.pushes && a.relabels == b.relabels &&
         a.global_relabels == b.global_relabels &&
         a.gap_jumps == b.gap_jumps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tb;
  // The serial-vs-threaded comparison needs every family in one process; a
  // sharded slice would break it, so fail loudly instead of mismeasuring.
  if (exp::env_shard()) {
    std::cerr << "flow_scaling: TOPOBENCH_SHARD is not supported (the "
                 "scaling comparison needs the whole workload)\n";
    return 1;
  }
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_flow_parallel.json";
  const int target = exp::target_servers_knob(96);
  const double min_speedup =
      env::double_knob("TOPOBENCH_MIN_SPEEDUP", 1.5, 0.0,
                       std::numeric_limits<double>::infinity());

  const std::vector<Family> families = all_families();
  std::vector<Network> nets;
  std::vector<TrafficMatrix> tms;
  for (const Family f : families) {
    nets.push_back(family_representative(f, target, /*seed=*/1));
    tms.push_back(all_to_all(nets.back()));
  }

  // One full pass per thread count. The workload is pure flow work — no
  // runner, no cache — so the timing ratio isolates the cut engine.
  const int thread_counts[] = {1, 2, 4};
  std::vector<std::vector<FamilyCuts>> results;
  std::vector<double> seconds;
  for (const int threads : thread_counts) {
    flow::FlowOptions fo;
    fo.threads = threads;
    std::vector<FamilyCuts> pass;
    Timer timer;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      FamilyCuts fc;
      fc.global = flow::global_min_cut(nets[i].graph, fo);
      fc.sparsest = cuts::sparsest_cut_st_mincut(nets[i].graph, tms[i],
                                                 /*max_pairs=*/16,
                                                 /*seed=*/1, fo);
      pass.push_back(std::move(fc));
    }
    seconds.push_back(timer.seconds());
    results.push_back(std::move(pass));
  }

  bool identical = true;
  for (std::size_t mode = 1; mode < results.size(); ++mode) {
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      const FamilyCuts& s = results[0][i];
      const FamilyCuts& t = results[mode][i];
      // == on the doubles is the point, not an oversight: the battery
      // promises bitwise identity, not closeness.
      if (t.global.value != s.global.value ||
          t.global.cut_capacity != s.global.cut_capacity ||
          t.global.source_side != s.global.source_side ||
          t.global.cut_edges != s.global.cut_edges ||
          !stats_eq(t.global.stats, s.global.stats) ||
          t.sparsest.sparsity != s.sparsest.sparsity ||
          t.sparsest.side != s.sparsest.side ||
          !stats_eq(t.sparsest.flow_stats, s.sparsest.flow_stats)) {
        identical = false;
        std::fprintf(stderr,
                     "FAIL %s at %d threads: global %.17g vs %.17g, "
                     "sparsest %.17g vs %.17g, pushes %ld vs %ld\n",
                     family_name(families[i]).c_str(), thread_counts[mode],
                     t.global.value, s.global.value, t.sparsest.sparsity,
                     s.sparsest.sparsity, t.sparsest.flow_stats.pushes,
                     s.sparsest.flow_stats.pushes);
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
                "{\"bench\": \"flow_scaling\", \"workload\": "
                "\"global_min_cut+st_mincut\", \"target_servers\": %d, "
                "\"families\": %zu, \"serial_seconds\": %.3f, "
                "\"two_seconds\": %.3f, \"four_seconds\": %.3f, "
                "\"speedup2\": %.3f, \"speedup4\": %.3f, "
                "\"bitwise_identical\": %s, \"hardware_threads\": %u, "
                "\"speedup_gate\": %.2f, \"gate_active\": %s}\n",
                target, results[0].size(), seconds[0], seconds[1], seconds[2],
                speedup2, speedup4, identical ? "true" : "false", hw,
                min_speedup, gate_active ? "true" : "false");
  json << buf;
  json.close();
  std::cout << buf;

  if (!identical) {
    std::cerr << "flow_scaling: threaded cut solves are not bitwise "
                 "identical to serial\n";
    return 1;
  }
  if (gate_active && speedup4 < min_speedup) {
    std::fprintf(stderr,
                 "flow_scaling: 4-thread speedup %.2fx below required "
                 "%.2fx\n",
                 speedup4, min_speedup);
    return 1;
  }
  if (!gate_active) {
    std::fprintf(stderr,
                 "flow_scaling: note — only %u hardware threads, speedup "
                 "gate skipped (bitwise check still enforced)\n",
                 hw);
  }
  return 0;
}
