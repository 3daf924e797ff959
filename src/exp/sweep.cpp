#include "exp/sweep.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "tm/synthetic.h"
#include "util/env.h"

namespace tb::exp {

std::vector<Cell> expand(const Sweep& s) {
  const std::size_t num_scenarios =
      std::max<std::size_t>(1, s.scenarios.size());
  std::vector<Cell> cells;
  cells.reserve(s.topologies.size() * s.tms.size() * num_scenarios);
  for (std::size_t t = 0; t < s.topologies.size(); ++t) {
    for (std::size_t m = 0; m < s.tms.size(); ++m) {
      for (std::size_t c = 0; c < num_scenarios; ++c) {
        cells.push_back({cells.size(), t, m, c});
      }
    }
  }
  return cells;
}

TopoSpec instance_spec(Network net) {
  auto shared = std::make_shared<const Network>(std::move(net));
  return {shared->name, [shared] { return shared; }};
}

std::vector<TopoSpec> ladder_specs(const std::vector<Family>& families,
                                   int min_servers, int max_servers,
                                   std::uint64_t seed) {
  std::vector<TopoSpec> specs;
  for (const Family f : families) {
    for (Network& net : family_instances(f, min_servers, max_servers, seed)) {
      specs.push_back(instance_spec(std::move(net)));
    }
  }
  return specs;
}

TopoSpec representative_spec(Family f, int target_servers,
                             std::uint64_t seed) {
  return instance_spec(family_representative(f, target_servers, seed));
}

Sweep relative_scaling_sweep(const std::vector<Family>& families,
                             int max_servers) {
  Sweep s;
  s.topologies =
      ladder_specs(families, 8, max_servers_knob(max_servers), /*seed=*/1);
  s.tms = {a2a_tm(), random_matching_tm(1), longest_matching_tm()};
  // Single-core default: a 10% certified gap is well below the separations
  // the figures exhibit; tighten with TOPOBENCH_EPS for publication runs.
  s.solve.epsilon = eps_knob(0.10);
  s.trials = trials_knob(2);
  s.base_seed = 1000;
  return s;
}

TmSpec a2a_tm() {
  return {"A2A", [](const Network& net, std::uint64_t) {
            return all_to_all(net);
          }};
}

TmSpec random_matching_tm(int k) {
  return {"RM(" + std::to_string(k) + ")",
          [k](const Network& net, std::uint64_t seed) {
            return random_matching(net, k, seed);
          }};
}

TmSpec longest_matching_tm() {
  return {"LM", [](const Network& net, std::uint64_t) {
            return longest_matching(net);
          }};
}

TmSpec kodialam_tm_spec() {
  return {"Kodialam", [](const Network& net, std::uint64_t) {
            return kodialam_tm(net);
          }};
}

std::vector<ScenarioPoint> random_failure_scenarios(
    const std::vector<double>& fractions) {
  std::vector<ScenarioPoint> points;
  points.reserve(fractions.size());
  for (const double f : fractions) {
    ScenarioPoint p;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "fail(f=%g)", f);
    p.label = buf;
    p.spec.random_edge_fraction = f;
    points.push_back(std::move(p));
  }
  return points;
}

ScenarioPoint degrade_scenario(double factor) {
  ScenarioPoint p;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "degrade(c=%g)", factor);
  p.label = buf;
  p.spec.capacity_factor = factor;
  return p;
}

std::vector<ScenarioPoint> correlated_group_scenarios(
    const std::vector<double>& fractions) {
  std::vector<ScenarioPoint> points;
  points.reserve(fractions.size());
  for (const double f : fractions) {
    ScenarioPoint p;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "groups(f=%g)", f);
    p.label = buf;
    p.spec.random_group_fraction = f;
    points.push_back(std::move(p));
  }
  return points;
}

ScenarioPoint surge_scenario(double scale) {
  ScenarioPoint p;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "surge(x=%g)", scale);
  p.label = buf;
  p.spec.tm_scale = scale;
  return p;
}

std::vector<ScenarioPoint> growth_scenarios(int steps) {
  if (steps < 1) {
    throw std::invalid_argument("growth_scenarios: steps must be >= 1");
  }
  constexpr double kStart = 0.5;  // installed fraction of stage 0
  std::vector<ScenarioPoint> points;
  points.reserve(static_cast<std::size_t>(steps));
  for (int g = 0; g < steps; ++g) {
    ScenarioPoint p;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "grow(step=%d/%d)", g, steps);
    p.label = buf;
    p.spec.installed_fraction =
        g == steps - 1
            ? 1.0
            : kStart + (1.0 - kStart) * g / static_cast<double>(steps - 1);
    p.growth_step = g;
    points.push_back(std::move(p));
  }
  return points;
}

double eps_knob(double fallback) {
  const double eps = env::double_knob(
      "TOPOBENCH_EPS", fallback, 0.0, std::numeric_limits<double>::infinity());
  mcf::check_epsilon(eps, "TOPOBENCH_EPS");
  return eps;
}

int trials_knob(int fallback) {
  return env::int_knob("TOPOBENCH_TRIALS", fallback, 1, 100);
}

int target_servers_knob(int fallback) {
  return env::int_knob("TOPOBENCH_TARGET_SERVERS", fallback, 4, 1'000'000);
}

int max_servers_knob(int fallback) {
  return env::int_knob("TOPOBENCH_MAX_SERVERS", fallback, 4, 1'000'000);
}

}  // namespace tb::exp
