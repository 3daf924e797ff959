// Failure resilience: throughput under degraded-network scenarios across a
// topology x TM x failure grid — the workload family the paper's
// robustness discussion motivates. Each cell solves the intact baseline
// cold, applies the scenario as an incremental ThroughputEngine
// perturbation, and re-solves warm from the baseline solution; the CSV
// carries the scenario label, failed_links, risk_group, tm_scale, and
// throughput_drop (1 - degraded/baseline) per cell, plus a cut upper bound
// priced on the degraded network (cut_bound / cut_gap / cut_method), a
// check of the degraded throughput that shares no code with the solvers.
//
// Two failure models, selected by TOPOBENCH_FAIL_MODE:
//   links  (default) — independent seeded random link failures, with a
//                      degrade-to-half-capacity scenario riding along
//   groups           — correlated shared-risk-group failures (whole pod /
//                      cable-bundle / dimension-plane groups fail together;
//                      see topo/network.h), with a 1.25x traffic surge
//                      scenario riding along so the tm_scale column is
//                      exercised on the bench path too
//
// Runs on the experiment runner (failures mode): TOPOBENCH_CSV=1 emits the
// uniform cell CSV, TOPOBENCH_TARGET_SERVERS sizes the representative
// instances, TOPOBENCH_FAIL_STEPS in [1, 4] selects how many failure
// fractions of {2%, 5%, 10%, 20%} to sweep. Deterministic for any thread
// count or shard split.
//
// With argv[1] set the binary instead runs the comparison mode for the CI
// perf-smoke job: both failure models on the same grid in one process,
// recording the mean throughput-drop curve of each in a one-line JSON
// written to argv[1] (and echoed to stdout). Exit status is non-zero when
// any drop is non-finite or outside the certified-slack window, when a
// degraded cell's cut bound lies below its throughput, or when a repeated
// correlated run is not byte-identical to the first (the bench's own
// determinism smoke).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/shard.h"
#include "util/env.h"
#include "util/table.h"

namespace {

using namespace tb;

exp::Sweep base_sweep(int target, double eps) {
  exp::Sweep sweep;
  sweep.solve.epsilon = eps;
  sweep.base_seed = 31;
  sweep.cut_bounds = true;
  for (const Family f : all_families()) {
    sweep.topologies.push_back(exp::representative_spec(f, target, /*seed=*/1));
  }
  sweep.tms = {exp::a2a_tm(), exp::random_matching_tm(1)};
  return sweep;
}

std::vector<double> fail_fractions(int steps) {
  const std::vector<double> all = {0.02, 0.05, 0.10, 0.20};
  return {all.begin(), all.begin() + steps};
}

std::vector<exp::ScenarioPoint> scenarios_for(const std::string& mode,
                                              int steps) {
  if (mode == "links") {
    std::vector<exp::ScenarioPoint> s =
        exp::random_failure_scenarios(fail_fractions(steps));
    s.push_back(exp::degrade_scenario(0.5));
    return s;
  }
  if (mode == "groups") {
    std::vector<exp::ScenarioPoint> s =
        exp::correlated_group_scenarios(fail_fractions(steps));
    s.push_back(exp::surge_scenario(1.25));
    return s;
  }
  throw std::invalid_argument(
      "TOPOBENCH_FAIL_MODE must be \"links\" or \"groups\", got \"" + mode +
      "\"");
}

/// Mean throughput_drop per scenario label, in first-appearance order.
std::vector<std::pair<std::string, double>> drop_curve(
    const exp::ResultSet& rs) {
  std::vector<std::string> order;
  std::map<std::string, std::pair<double, int>> acc;
  for (const exp::CellResult& r : rs.rows()) {
    if (std::isnan(r.throughput_drop)) continue;
    if (acc.find(r.scenario) == acc.end()) order.push_back(r.scenario);
    auto& a = acc[r.scenario];
    a.first += r.throughput_drop;
    a.second += 1;
  }
  std::vector<std::pair<std::string, double>> curve;
  for (const std::string& label : order) {
    curve.emplace_back(label, acc[label].first / acc[label].second);
  }
  return curve;
}

int comparison(const std::string& json_path, int target, double eps,
               int steps) {
  exp::Sweep sweep = base_sweep(target, eps);

  // The drop window a cell must land in: drops above 1 or below the GK
  // certified slack (a warm degraded solve can legitimately edge past its
  // baseline by at most the gap) mean a broken baseline, not noise.
  const double slack = 2.0 * eps;
  bool sane = true;
  std::vector<exp::ResultSet> runs;
  for (const char* mode : {"links", "groups"}) {
    sweep.scenarios = scenarios_for(mode, steps);
    exp::Runner runner;
    runs.push_back(runner.run(sweep, exp::RunOptions::from_env()));
    for (const exp::CellResult& r : runs.back().rows()) {
      if (!(r.cut_bound >= r.throughput * (1.0 - 1e-9))) {
        sane = false;
        std::fprintf(stderr, "FAIL %s/%s/%s: cut bound %.17g below "
                     "throughput %.17g\n", r.topology.c_str(), r.tm.c_str(),
                     r.scenario.c_str(), r.cut_bound, r.throughput);
      }
      if (std::isnan(r.throughput_drop)) continue;
      if (!std::isfinite(r.throughput_drop) || r.throughput_drop > 1.0 ||
          r.throughput_drop < -slack) {
        sane = false;
        std::fprintf(stderr, "FAIL %s/%s/%s: drop %.17g outside [%g, 1]\n",
                     r.topology.c_str(), r.tm.c_str(), r.scenario.c_str(),
                     r.throughput_drop, -slack);
      }
    }
  }

  // Determinism smoke: a fresh runner on the correlated grid must
  // reproduce the first correlated run byte for byte.
  bool identical = true;
  {
    sweep.scenarios = scenarios_for("groups", steps);
    exp::Runner runner;
    const exp::ResultSet repeat = runner.run(sweep, exp::RunOptions::from_env());
    identical = repeat.to_csv() == runs[1].to_csv();
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: repeated correlated run is not byte-identical\n");
    }
  }

  std::string json = "{\"bench\": \"failure_resilience\", \"target_servers\": ";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%d, \"epsilon\": %g, \"fail_steps\": %d",
                target, eps, steps);
  json += buf;
  const char* keys[] = {"\"independent_drops\"", "\"correlated_drops\""};
  for (int m = 0; m < 2; ++m) {
    json += std::string(", ") + keys[m] + ": {";
    bool first = true;
    for (const auto& [label, mean] : drop_curve(runs[m])) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f", first ? "" : ", ",
                    label.c_str(), mean);
      json += buf;
      first = false;
    }
    json += "}";
  }
  std::snprintf(buf, sizeof(buf),
                ", \"cells\": %zu, \"sane\": %s, \"bitwise_identical\": %s}\n",
                runs[0].size() + runs[1].size(), sane ? "true" : "false",
                identical ? "true" : "false");
  json += buf;

  std::ofstream out(json_path);
  out << json;
  out.close();
  std::cout << json;
  return (sane && identical) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string caption =
      "Failure resilience: throughput drop under link failures / degradation";

  const double eps = exp::eps_knob(0.08);
  const int target = exp::target_servers_knob(48);
  const int steps = env::int_knob("TOPOBENCH_FAIL_STEPS", 3, 1, 4);
  const std::string mode =
      env::raw("TOPOBENCH_FAIL_MODE").value_or("links");

  if (argc > 1) {
    // Comparison mode needs both grids whole in one process.
    if (exp::env_shard()) {
      std::cerr << "failure_resilience: TOPOBENCH_SHARD is not supported in "
                   "comparison mode\n";
      return 1;
    }
    return comparison(argv[1], target, eps, steps);
  }

  exp::Sweep sweep = base_sweep(target, eps);
  sweep.scenarios = scenarios_for(mode, steps);

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  Table table({"topology", "tm", "scenario", "failed_links", "throughput",
               "drop", "cut_gap"});
  const auto fmt_or_na = [](double v) {
    return std::isnan(v) ? std::string("na") : Table::fmt(v, 3);
  };
  for (const exp::CellResult& r : rs.rows()) {
    table.add_row({r.topology, r.tm, r.scenario,
                   std::to_string(r.failed_links), Table::fmt(r.throughput, 3),
                   fmt_or_na(r.throughput_drop), fmt_or_na(r.cut_gap)});
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
