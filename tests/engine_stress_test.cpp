// Seeded stress for the ThroughputEngine session layer: one engine is
// hammered with an interleaved, Rng-driven mix of warm solves, scenario
// apply/solve/revert cycles, and failures-mode runner sweeps (a scenario
// fleet: one shared baseline, forked per-scenario sessions). After every
// step the suite asserts the session invariants the rest of the stack
// relies on: certified primal/dual agreement of every solve, bitwise-exact
// revert of scenario perturbations (a cold solve after clear_scenario()
// equals the pristine cold solve), and failure cells identical to their
// one-at-a-time evaluation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"
#include "fleet_reference.h"
#include "mcf/engine.h"
#include "pool_test_env.h"
#include "tm/synthetic.h"
#include "topo/jellyfish.h"
#include "util/rng.h"

namespace tb {
namespace {

[[maybe_unused]] const int kForcePoolThreads = test_env::force_pool_threads();

constexpr double kEps = 0.08;

mcf::SolveOptions gk_opts() {
  mcf::SolveOptions o;
  o.kind = mcf::SolverKind::GargKonemann;
  o.epsilon = kEps;
  return o;
}

/// Certified interval sanity of one result: feasible value below its own
/// dual bound; both positive on a connected instance.
void expect_certified(const mcf::ThroughputResult& r, const char* what) {
  EXPECT_GT(r.throughput, 0.0) << what;
  EXPECT_LE(r.throughput, r.upper_bound * (1.0 + 1e-9)) << what;
}

/// Certified-gap agreement of two solves of the same instance: each
/// feasible value must respect the other's certified upper bound.
void expect_agreement(const mcf::ThroughputResult& a,
                      const mcf::ThroughputResult& b, const char* what) {
  EXPECT_LE(a.throughput, b.upper_bound * (1.0 + 1e-9)) << what;
  EXPECT_LE(b.throughput, a.upper_bound * (1.0 + 1e-9)) << what;
}

TEST(EngineStress, InterleavedWarmScenarioAndFleetOperations) {
  const Network net = make_jellyfish(18, 4, 1, 77);
  const std::vector<TrafficMatrix> tms = {
      all_to_all(net), random_matching(net, 1, 5), longest_matching(net)};

  // Pristine cold references, one per TM: the bitwise revert anchors.
  std::vector<mcf::ThroughputResult> cold_ref;
  for (const TrafficMatrix& tm : tms) {
    mcf::ThroughputEngine fresh(net);
    cold_ref.push_back(fresh.solve(tm, gk_opts()));
    expect_certified(cold_ref.back(), tm.name.c_str());
  }

  mcf::ThroughputEngine engine(net);
  Rng rng(0xfeedULL);
  for (int step = 0; step < 24; ++step) {
    const auto which = static_cast<std::size_t>(rng.next_u64(tms.size()));
    const TrafficMatrix& tm = tms[which];
    switch (rng.next_u64(4)) {
      case 0: {
        // Warm session solve of a random TM: certified and in agreement
        // with the pristine cold solve of the same instance.
        const auto warm = engine.warm_solve(tm, gk_opts());
        expect_certified(warm, "warm");
        expect_agreement(warm, cold_ref[which], tm.name.c_str());
        break;
      }
      case 1: {
        // Random link-failure scenario: solve degraded, then revert and
        // require the cold solve to be bitwise the pristine reference.
        mcf::ScenarioSpec spec;
        spec.random_edge_fraction = rng.next_double(0.05, 0.2);
        spec.seed = rng();
        engine.apply_scenario(spec);
        const auto degraded = engine.solve(tm, gk_opts());
        if (degraded.solver != "disconnected") {
          expect_certified(degraded, "degraded");
        }
        engine.clear_scenario();
        const auto restored = engine.solve(tm, gk_opts());
        EXPECT_EQ(restored.throughput, cold_ref[which].throughput) << step;
        EXPECT_EQ(restored.upper_bound, cold_ref[which].upper_bound) << step;
        EXPECT_EQ(restored.stats.phases, cold_ref[which].stats.phases) << step;
        EXPECT_EQ(restored.stats.dijkstras, cold_ref[which].stats.dijkstras)
            << step;
        break;
      }
      case 2: {
        // Capacity degradation: throughput can only drop (within the
        // combined certified gaps); revert must again be bitwise exact.
        mcf::ScenarioSpec spec;
        spec.capacity_factor = rng.next_double(0.4, 0.9);
        engine.apply_scenario(spec);
        const auto degraded = engine.warm_solve(tm, gk_opts());
        expect_certified(degraded, "degraded-capacity");
        EXPECT_LE(degraded.throughput,
                  cold_ref[which].upper_bound * (1.0 + 1e-9))
            << step;
        engine.clear_scenario();
        const auto restored = engine.solve(tm, gk_opts());
        EXPECT_EQ(restored.throughput, cold_ref[which].throughput) << step;
        EXPECT_EQ(restored.stats.phases, cold_ref[which].stats.phases) << step;
        break;
      }
      default: {
        // Failure group: every cell bitwise equal to its one-at-a-time
        // evaluation, and the sweep leaves the session world untouched
        // (the engine's next cold solve still matches the reference).
        exp::Sweep sweep;
        sweep.topologies = {exp::instance_spec(net)};
        sweep.tms = {exp::TmSpec{
            tm.name, [&tm](const Network&, std::uint64_t) { return tm; }}};
        sweep.solve = gk_opts();
        sweep.scenarios = exp::random_failure_scenarios(
            {rng.next_double(0.05, 0.15)});
        sweep.base_seed = rng();
        sweep.scenarios.push_back(
            exp::degrade_scenario(rng.next_double(0.5, 0.9)));
        exp::Runner runner;  // fresh: labels need not pin exact values
        {
          SCOPED_TRACE("step " + std::to_string(step));
          test_ref::expect_rows_match_one_at_a_time(
              sweep, runner.run(sweep, exp::RunOptions{}));
        }
        const auto after = engine.solve(tm, gk_opts());
        EXPECT_EQ(after.throughput, cold_ref[which].throughput) << step;
        break;
      }
    }
  }
}

}  // namespace
}  // namespace tb
