// tb::api façade: this file includes ONLY api/topobench.h (plus gtest and
// the standard library) — pinning that the public header compiles
// standalone — and covers the factories, their error paths, the Service
// answer tiers (solved -> memory -> store), and the strict environment
// loader.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "api/topobench.h"

namespace {

using namespace tb::api;

std::string fresh_store(const std::string& name) {
  const std::string path = testing::TempDir() + "topobench_api_" + name + "_" +
                           std::to_string(::getpid()) + ".store";
  std::remove(path.c_str());
  return path;
}

TEST(ApiFactoriesTest, FamilyNamesAreSortedAndBuildable) {
  const std::vector<std::string> names = family_names();
  ASSERT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    const Topology t = build_topology(name, 16);
    EXPECT_EQ(t.label, name + "(servers=16,seed=1)");
  }
}

TEST(ApiFactoriesTest, TopologyRejectsBadInputEagerly) {
  EXPECT_THROW(build_topology("no-such-family", 16), std::invalid_argument);
  EXPECT_THROW(build_topology("hypercube", 0), std::invalid_argument);
}

TEST(ApiFactoriesTest, TopologySaveLoadRoundTrips) {
  const Topology t = build_topology("hypercube", 16);
  std::stringstream edge_list;
  save_topology(edge_list, t);
  const Topology back = load_topology(edge_list, "reloaded");
  EXPECT_EQ(back.label, "reloaded");
  EXPECT_EQ(back.build()->graph.num_nodes(), t.build()->graph.num_nodes());
  EXPECT_EQ(back.build()->graph.num_edges(), t.build()->graph.num_edges());
}

TEST(ApiFactoriesTest, TmSpecsParseAndRejectLoudly) {
  EXPECT_EQ(build_tm("a2a").label, "A2A");
  EXPECT_EQ(build_tm("lm").label, "LM");
  EXPECT_EQ(build_tm("kodialam").label, "Kodialam");
  EXPECT_EQ(build_tm("rm(4)").label, "RM(4)");
  EXPECT_THROW(build_tm("rm(0)"), std::invalid_argument);
  EXPECT_THROW(build_tm("rm(1.5)"), std::invalid_argument);
  EXPECT_THROW(build_tm("rm()"), std::invalid_argument);
  EXPECT_THROW(build_tm("bogus"), std::invalid_argument);
}

TEST(ApiFactoriesTest, ScenarioSpecsParseAndRejectLoudly) {
  EXPECT_EQ(build_scenario("fail(f=0.1)").label, "fail(f=0.1)");
  EXPECT_EQ(build_scenario("degrade(c=0.9)").label, "degrade(c=0.9)");
  EXPECT_THROW(build_scenario("fail(f=1.5)"), std::invalid_argument);
  EXPECT_THROW(build_scenario("degrade(c=-1)"), std::invalid_argument);
  // The engine requires a capacity factor in (0, 1]: c=0 must fail here,
  // not after the service has built the topology.
  EXPECT_THROW(build_scenario("degrade(c=0)"), std::invalid_argument);
  EXPECT_THROW(build_scenario("meteor()"), std::invalid_argument);
  // Non-finite parameters (requests arrive as text, and stod reads "nan"
  // and "inf") are rejected, never turned into a scenario or a cache key.
  for (const char* spec :
       {"fail(f=nan)", "fail(f=inf)", "groups(f=nan)", "groups(f=-inf)",
        "degrade(c=nan)", "surge(x=inf)", "surge(x=nan)"}) {
    EXPECT_THROW(build_scenario(spec), std::invalid_argument) << spec;
  }
}

TEST(ApiServiceTest, AnswerTiersProgressSolvedMemoryStore) {
  const std::string store = fresh_store("tiers");
  Query q;
  q.topology = build_topology("hypercube", 16);
  q.tm = build_tm("a2a");
  q.epsilon = 0.1;
  q.seed = 7;
  std::string solved_row;
  {
    ServiceConfig cfg;
    cfg.store_path = store;
    Service service(cfg);
    const QueryResult first = service.query(q);
    EXPECT_EQ(first.source, Source::Solved);
    const QueryResult second = service.query(q);
    EXPECT_EQ(second.source, Source::Memory);
    EXPECT_EQ(second.record.throughput, first.record.throughput);
    solved_row = std::to_string(first.record.throughput);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.memory_hits, 1u);
    EXPECT_EQ(stats.store_entries, 1u);
  }  // release the writer lock
  ServiceConfig ro;
  ro.store_path = store;
  ro.store_read_only = true;
  Service second_service(ro);
  const QueryResult replay = second_service.query(q);
  EXPECT_EQ(replay.source, Source::Store);
  EXPECT_EQ(std::to_string(replay.record.throughput), solved_row);
  std::remove(store.c_str());
}

TEST(ApiServiceTest, SweepBatchesAndReportsBatchStats) {
  SweepQuery q;
  q.topologies = {build_topology("hypercube", 16),
                  build_topology("fattree", 16)};
  q.tms = {build_tm("a2a"), build_tm("lm")};
  q.epsilon = 0.1;
  q.seed = 11;
  Service service;
  const SweepResult first = service.sweep(q);
  EXPECT_EQ(first.results.size(), 4u);
  EXPECT_EQ(first.stats.solved, 4u);
  EXPECT_EQ(first.stats.memory_hits, 0u);
  const SweepResult again = service.sweep(q);
  EXPECT_EQ(again.stats.solved, 0u);
  EXPECT_EQ(again.stats.memory_hits, 4u);
  EXPECT_EQ(again.results.to_csv(), first.results.to_csv());
}

TEST(ApiServiceTest, ScenarioQueryCarriesTheFailureColumns) {
  Query q;
  q.topology = build_topology("hypercube", 16);
  q.tm = build_tm("a2a");
  q.epsilon = 0.1;
  q.scenario = build_scenario("degrade(c=0.5)");
  q.seed = 3;
  Service service;
  const QueryResult r = service.query(q);
  EXPECT_EQ(r.record.scenario, "degrade(c=0.5)");
  EXPECT_EQ(r.record.failed_links, 0);
  EXPECT_GT(r.record.throughput_drop, 0.0);
}

TEST(ApiConfigTest, FromEnvLoadsAndRejectsStrictly) {
  ::setenv("TOPOBENCH_STORE", "/tmp/some.store", 1);
  ::setenv("TOPOBENCH_STORE_RO", "1", 1);
  ::setenv("TOPOBENCH_SOLVER_THREADS", "4", 1);
  ServiceConfig cfg = ServiceConfig::from_env();
  EXPECT_EQ(cfg.store_path, "/tmp/some.store");
  EXPECT_TRUE(cfg.store_read_only);
  EXPECT_EQ(cfg.solver_threads, 4);

  ::setenv("TOPOBENCH_SOLVER_THREADS", "lots", 1);
  EXPECT_THROW(ServiceConfig::from_env(), std::invalid_argument);
  ::setenv("TOPOBENCH_SOLVER_THREADS", "4", 1);
  ::setenv("TOPOBENCH_STORE_RO", "yes", 1);
  EXPECT_THROW(ServiceConfig::from_env(), std::invalid_argument);

  ::unsetenv("TOPOBENCH_STORE");
  ::unsetenv("TOPOBENCH_STORE_RO");
  ::unsetenv("TOPOBENCH_SOLVER_THREADS");
  cfg = ServiceConfig::from_env();
  EXPECT_TRUE(cfg.store_path.empty());
  EXPECT_FALSE(cfg.store_read_only);
  EXPECT_EQ(cfg.solver_threads, 0);
}

TEST(ApiServiceTest, UnopenableStoreFailsConstructionLoudly) {
  ServiceConfig cfg;
  cfg.store_path = "/no/such/directory/x.store";
  EXPECT_THROW(Service{cfg}, std::runtime_error);
}

}  // namespace
