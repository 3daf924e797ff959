#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/evaluator.h"
#include "core/registry.h"
#include "pool_test_env.h"
#include "tm/synthetic.h"
#include "topo/hypercube.h"
#include "topo/jellyfish.h"
#include "util/thread_pool.h"

namespace tb {
namespace {

[[maybe_unused]] const int kForcePoolThreads = test_env::force_pool_threads();

TEST(Registry, AllFamiliesHaveInstances) {
  for (const Family f : all_families()) {
    const std::vector<Network> nets = family_instances(f, 1, 1'000'000, 1);
    EXPECT_FALSE(nets.empty()) << family_name(f);
    int prev = 0;
    for (const Network& net : nets) {
      net.validate();
      EXPECT_GE(net.total_servers(), prev) << family_name(f);
      prev = net.total_servers();
    }
  }
}

TEST(Registry, FamilyNamesUnique) {
  std::set<std::string> names;
  for (const Family f : all_families()) {
    EXPECT_TRUE(names.insert(family_name(f)).second);
  }
  EXPECT_EQ(names.size(), 10u);
}

TEST(Registry, RepresentativePicksNearestSize) {
  const Network net = family_representative(Family::Hypercube, 60, 1);
  EXPECT_EQ(net.total_servers(), 64);  // 2^6 closest to 60
  const Network small = family_representative(Family::FatTree, 16, 1);
  EXPECT_EQ(small.total_servers(), 16);  // k=4
}

TEST(Registry, SizeWindowFilters) {
  const std::vector<Network> nets =
      family_instances(Family::Hypercube, 30, 130, 1);
  ASSERT_EQ(nets.size(), 3u);  // 32, 64, 128
  EXPECT_EQ(nets[0].total_servers(), 32);
  EXPECT_EQ(nets[2].total_servers(), 128);
}

TEST(Evaluator, JellyfishRelativeIsNearOne) {
  // A random regular graph normalized by same-equipment random graphs must
  // sit near 1 (the paper's definition of the Jellyfish baseline).
  const Network jf = make_jellyfish(32, 5, 1, 7);
  RelativeOptions opts;
  opts.random_trials = 3;
  opts.solve.epsilon = 0.03;
  const RelativeResult r = relative_throughput(jf, all_to_all(jf), opts);
  EXPECT_NEAR(r.relative, 1.0, 0.12);
  EXPECT_GT(r.topo_throughput, 0.0);
  EXPECT_EQ(r.random_throughput.n, 3u);
}

TEST(Evaluator, DeterministicGivenSeed) {
  const Network hc = make_hypercube(4);
  const TrafficMatrix tm = longest_matching(hc);
  RelativeOptions opts;
  opts.random_trials = 2;
  opts.seed = 99;
  const RelativeResult a = relative_throughput(hc, tm, opts);
  const RelativeResult b = relative_throughput(hc, tm, opts);
  EXPECT_DOUBLE_EQ(a.relative, b.relative);
}

TEST(Evaluator, HypercubeLosesToRandomAtSize) {
  // Paper Table I: hypercube relative throughput < 1 under LM at size.
  const Network hc = make_hypercube(6);
  RelativeOptions opts;
  opts.random_trials = 3;
  opts.solve.epsilon = 0.05;
  const RelativeResult r = relative_throughput(hc, longest_matching(hc), opts);
  EXPECT_LT(r.relative, 0.95);
}

TEST(Evaluator, ParallelTrialsMatchSerialPath) {
  // The random-graph trials fan out on the shared pool, and run inline when
  // relative_throughput is itself called from a pool worker; per-trial
  // seeds derive from the trial index and the reduction happens after the
  // barrier, so the pooled and the serial (worker-inline, solver_threads
  // = 1) paths must agree exactly for a fixed seed.
  if (ThreadPool::shared().size() <= 1) {
    GTEST_SKIP() << "shared pool has one worker (TOPOBENCH_THREADS "
                    "override?); parallel path would not be exercised";
  }
  const Network hc = make_hypercube(4);
  const TrafficMatrix tm = longest_matching(hc);
  RelativeOptions parallel;
  parallel.random_trials = 4;
  parallel.seed = 7;
  RelativeOptions serial = parallel;
  serial.solve.solver_threads = 1;
  RelativeResult a;
  ThreadPool::shared()
      .submit([&] { a = relative_throughput(hc, tm, serial); })
      .get();
  const RelativeResult b = relative_throughput(hc, tm, parallel);
  EXPECT_DOUBLE_EQ(a.topo_throughput, b.topo_throughput);
  EXPECT_DOUBLE_EQ(a.random_throughput.mean, b.random_throughput.mean);
  EXPECT_DOUBLE_EQ(a.random_throughput.ci95, b.random_throughput.ci95);
  EXPECT_DOUBLE_EQ(a.relative, b.relative);
  EXPECT_DOUBLE_EQ(a.relative_ci95, b.relative_ci95);
}

TEST(Evaluator, SingleTrialCiIsNaNSentinel) {
  // random_trials = 1 used to report a spuriously exact ci95 == 0.
  const Network hc = make_hypercube(3);
  RelativeOptions opts;
  opts.random_trials = 1;
  const RelativeResult r = relative_throughput(hc, all_to_all(hc), opts);
  EXPECT_GT(r.relative, 0.0);
  EXPECT_TRUE(std::isnan(r.random_throughput.ci95));
  EXPECT_TRUE(std::isnan(r.relative_ci95));
}

TEST(Evaluator, RejectsBadTrialCount) {
  const Network hc = make_hypercube(3);
  RelativeOptions opts;
  opts.random_trials = 0;
  EXPECT_THROW(relative_throughput(hc, all_to_all(hc), opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace tb
