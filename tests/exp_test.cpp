#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "fleet_reference.h"
#include "mcf/engine.h"
#include "pool_test_env.h"
#include "tm/synthetic.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tb {
namespace {

[[maybe_unused]] const int kForcePoolThreads = test_env::force_pool_threads();

/// A small, ExactLP-solvable sweep used throughout: hypercube instances
/// under A2A and LM.
exp::Sweep tiny_sweep(int trials, std::uint64_t base_seed = 5) {
  exp::Sweep s;
  s.topologies = {exp::representative_spec(Family::Hypercube, 16, 1)};
  s.tms = {exp::a2a_tm(), exp::longest_matching_tm()};
  s.trials = trials;
  s.base_seed = base_seed;
  return s;
}

TEST(Sweep, ExpansionIsTopologyMajor) {
  exp::Sweep s;
  s.topologies = {exp::representative_spec(Family::Hypercube, 16, 1),
                  exp::representative_spec(Family::FatTree, 16, 1)};
  s.tms = {exp::a2a_tm(), exp::random_matching_tm(1),
           exp::longest_matching_tm()};
  const std::vector<exp::Cell> cells = exp::expand(s);
  ASSERT_EQ(cells.size(), 6u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].topo, i / 3);
    EXPECT_EQ(cells[i].tm, i % 3);
  }
}

TEST(Sweep, LadderSpecsFilterAndLabel) {
  const std::vector<exp::TopoSpec> specs =
      exp::ladder_specs({Family::Hypercube}, 30, 130, 1);
  ASSERT_EQ(specs.size(), 3u);  // 32, 64, 128 servers
  const std::shared_ptr<const Network> n0 = specs[0].build();
  EXPECT_EQ(n0->total_servers(), 32);
  EXPECT_EQ(specs[0].label, n0->name);
  EXPECT_EQ(specs[2].build()->total_servers(), 128);
  // Repeated builds hand out the same instance, not a copy.
  EXPECT_EQ(specs[0].build().get(), n0.get());
}

TEST(Sweep, TmSpecsAreSeedDriven) {
  const std::shared_ptr<const Network> hc =
      exp::representative_spec(Family::Hypercube, 16, 1).build();
  const exp::TmSpec rm = exp::random_matching_tm(1);
  EXPECT_EQ(rm.label, "RM(1)");
  const TrafficMatrix a = rm.build(*hc, 7);
  const TrafficMatrix b = rm.build(*hc, 7);
  ASSERT_EQ(a.demands.size(), b.demands.size());
  for (std::size_t i = 0; i < a.demands.size(); ++i) {
    EXPECT_EQ(a.demands[i].src, b.demands[i].src);
    EXPECT_EQ(a.demands[i].dst, b.demands[i].dst);
  }
}

TEST(Runner, CacheAnswersRepeatedCellsWithoutReevaluating) {
  const exp::Sweep sweep = tiny_sweep(/*trials=*/0);
  exp::Runner runner;
  const exp::ResultSet first = runner.run(sweep, exp::RunOptions{});
  EXPECT_EQ(runner.cache_stats().misses, 2u);
  EXPECT_EQ(runner.cache_stats().hits, 0u);
  const exp::ResultSet second = runner.run(sweep, exp::RunOptions{});
  EXPECT_EQ(runner.cache_stats().misses, 2u);  // same cells evaluated once
  EXPECT_EQ(runner.cache_stats().hits, 2u);
  EXPECT_EQ(first.to_csv(), second.to_csv());
}

// Guards the allow(unordered-container) marker on Runner::cache_: the
// cache is an unordered_map, so this pins the claim that its iteration
// (bucket) order cannot leak into emitted CSV bytes. Two runners reach
// the same cache *contents* through different insertion orders — one
// evaluates the grid front to back, the other back shard first — and the
// fully-cached replay must still emit byte-identical CSV.
TEST(Runner, CacheInsertionOrderCannotLeakIntoCsvBytes) {
  const exp::Sweep sweep = tiny_sweep(/*trials=*/0);
  exp::Runner forward;
  const std::string baseline = forward.run(sweep, exp::RunOptions{}).to_csv();

  exp::Runner reversed;
  exp::RunOptions back;
  back.shard = exp::ShardSpec{1, 2};
  exp::RunOptions front;
  front.shard = exp::ShardSpec{0, 2};
  (void)reversed.run(sweep, back);   // cell 1 inserted first
  (void)reversed.run(sweep, front);  // then cell 0
  const std::string replayed = reversed.run(sweep, exp::RunOptions{}).to_csv();
  EXPECT_EQ(reversed.cache_stats().hits, 2u);  // pure cache replay
  EXPECT_EQ(replayed, baseline);
}

TEST(Runner, CacheDistinguishesSolverAndTrialConfig) {
  exp::Sweep sweep = tiny_sweep(/*trials=*/0);
  exp::Runner runner;
  (void)runner.run(sweep, exp::RunOptions{});
  exp::Sweep tighter = sweep;
  tighter.solve.kind = mcf::SolverKind::ExactLP;
  (void)runner.run(tighter, exp::RunOptions{});
  // Different solver configuration must not be answered from the cache.
  EXPECT_EQ(runner.cache_stats().misses, 4u);
}

TEST(Runner, SerialAndParallelProduceIdenticalCsv) {
  // The driver-level CTest entry diffs TOPOBENCH_THREADS=1 against the
  // default pool across processes; this covers the in-process half of the
  // contract (cell distribution must not affect results).
  if (ThreadPool::shared().size() <= 1) {
    GTEST_SKIP() << "shared pool has one worker (TOPOBENCH_THREADS "
                    "override?); parallel path would not be exercised";
  }
  const exp::Sweep sweep = tiny_sweep(/*trials=*/2);
  exp::Runner serial(/*parallel=*/false);
  exp::Runner parallel(/*parallel=*/true);
  EXPECT_EQ(serial.run(sweep, exp::RunOptions{}).to_csv(),
            parallel.run(sweep, exp::RunOptions{}).to_csv());
}

TEST(Runner, RelativeCellsMatchDirectEvaluatorCall) {
  // The runner must be a pure orchestrator: a relative cell's numbers are
  // exactly relative_throughput with the documented seed derivation
  // (cell_seed = mix_seed(base, cell), trial t = mix_seed(base, cell, t)).
  const exp::Sweep sweep = tiny_sweep(/*trials=*/2, /*base_seed=*/42);
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  ASSERT_EQ(rs.size(), 2u);
  const std::shared_ptr<const Network> built = sweep.topologies[0].build();
  const Network& net = *built;
  for (std::size_t cell = 0; cell < 2; ++cell) {
    const std::uint64_t cell_seed = mix_seed(sweep.base_seed, cell);
    const TrafficMatrix tm =
        sweep.tms[cell].build(net, mix_seed(cell_seed, 0));
    RelativeOptions opts;
    opts.random_trials = sweep.trials;
    opts.seed = cell_seed;
    opts.solve = sweep.solve;
    const RelativeResult expected = relative_throughput(net, tm, opts);
    const exp::CellResult& got = rs.rows()[cell];
    EXPECT_EQ(got.seed, cell_seed);
    EXPECT_DOUBLE_EQ(got.throughput, expected.topo_throughput);
    EXPECT_DOUBLE_EQ(got.relative, expected.relative);
    EXPECT_DOUBLE_EQ(got.random_mean, expected.random_throughput.mean);
  }
}

TEST(Results, CsvRoundTripsExactlyIncludingSentinels) {
  exp::ResultSet rs;
  exp::CellResult a;
  a.cell = 0;
  a.topology = "BCube(n=2,k=3)";  // comma forces quoting
  a.servers = 16;
  a.switches = 48;
  a.tm = "A2A";
  a.seed = 123456789012345ULL;
  a.solver = "auto(eps=0.05)";
  a.trials = 0;
  a.throughput = 1.0 / 3.0;  // exercises 17-digit round-trip
  rs.add(a);
  exp::CellResult b = a;
  b.cell = 1;
  b.topology = "weird \"quoted\"\nmultiline name";
  b.tm = "LM";
  b.trials = 1;
  b.random_mean = 0.75;
  b.random_ci95 = std::numeric_limits<double>::quiet_NaN();
  b.relative = 4.0 / 9.0;
  b.relative_ci95 = std::numeric_limits<double>::quiet_NaN();
  b.cut_bound = 5.0 / 7.0;
  b.cut_gap = (5.0 / 7.0) / (1.0 / 3.0);
  b.cut_method = "st-mincut(exact)";
  b.scenario = "fail(f=0.1)";
  b.failed_links = 4;
  b.throughput_drop = 2.0 / 7.0;
  b.risk_group = 3;
  b.tm_scale = 1.5;
  b.growth_step = 2;
  b.pivots = 123;
  b.phases = 456;
  b.dijkstras = 789;
  b.pushes = 1011;
  b.relabels = 1213;
  b.global_relabels = 14;
  b.warm = 1;
  rs.add(b);

  const std::string csv = rs.to_csv();
  EXPECT_NE(csv.find("\"BCube(n=2,k=3)\""), std::string::npos);
  EXPECT_NE(csv.find(",na,"), std::string::npos);

  const exp::ResultSet back = exp::ResultSet::from_csv(csv);
  ASSERT_EQ(back.size(), 2u);
  const exp::CellResult& ra = back.rows()[0];
  EXPECT_EQ(ra.topology, a.topology);
  EXPECT_EQ(ra.seed, a.seed);
  EXPECT_EQ(ra.solver, a.solver);
  EXPECT_DOUBLE_EQ(ra.throughput, a.throughput);
  EXPECT_TRUE(std::isnan(ra.random_mean));
  EXPECT_TRUE(std::isnan(ra.cut_bound));
  EXPECT_TRUE(ra.cut_method.empty());
  // The absolute cell keeps the failure/stat sentinels and defaults.
  EXPECT_TRUE(ra.scenario.empty());
  EXPECT_EQ(ra.failed_links, -1);  // "na" in CSV: 0 is a real count
  EXPECT_TRUE(std::isnan(ra.throughput_drop));
  EXPECT_EQ(ra.risk_group, -1);  // same sentinel rule as failed_links
  EXPECT_TRUE(std::isnan(ra.tm_scale));
  EXPECT_EQ(ra.growth_step, -1);
  EXPECT_EQ(ra.warm, 0);
  const exp::CellResult& rb = back.rows()[1];
  EXPECT_EQ(rb.topology, b.topology);
  EXPECT_DOUBLE_EQ(rb.relative, b.relative);
  EXPECT_TRUE(std::isnan(rb.relative_ci95));
  EXPECT_DOUBLE_EQ(rb.cut_bound, b.cut_bound);
  EXPECT_DOUBLE_EQ(rb.cut_gap, b.cut_gap);
  EXPECT_EQ(rb.cut_method, b.cut_method);
  EXPECT_EQ(rb.scenario, b.scenario);
  EXPECT_EQ(rb.failed_links, b.failed_links);
  EXPECT_DOUBLE_EQ(rb.throughput_drop, b.throughput_drop);
  EXPECT_EQ(rb.risk_group, b.risk_group);
  EXPECT_DOUBLE_EQ(rb.tm_scale, b.tm_scale);
  EXPECT_EQ(rb.growth_step, b.growth_step);
  EXPECT_EQ(rb.pivots, b.pivots);
  EXPECT_EQ(rb.phases, b.phases);
  EXPECT_EQ(rb.dijkstras, b.dijkstras);
  EXPECT_EQ(rb.pushes, b.pushes);
  EXPECT_EQ(rb.relabels, b.relabels);
  EXPECT_EQ(rb.global_relabels, b.global_relabels);
  EXPECT_EQ(rb.warm, b.warm);
  // Re-serializing is byte-stable (the determinism the CTest diff relies on).
  EXPECT_EQ(back.to_csv(), csv);
}

TEST(Runner, CallerAuthoredSpecLabelIsRowIdentity) {
  // A spec whose label differs from the built network's name must still
  // produce rows addressable by the label (the documented identity).
  exp::Sweep sweep;
  const exp::TopoSpec registry =
      exp::representative_spec(Family::Hypercube, 16, 1);
  sweep.topologies = {{"hc16", registry.build}};
  sweep.tms = {exp::a2a_tm()};
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.rows()[0].topology, "hc16");
  EXPECT_GT(rs.at("hc16", "A2A").throughput, 0.0);
}

/// A record whose every column holds a distinct non-default value, so a
/// codec that swaps, drops or defaults any column changes its bytes.
exp::CellResult all_columns_set() {
  exp::CellResult r;
  r.cell = 7;
  r.topology = "BCube(n=2,k=3)";
  r.servers = 24;
  r.switches = 12;
  r.tm = "RM(5)";
  r.seed = 18446744073709551557ULL;
  r.solver = "exact-lp";
  r.trials = 3;
  r.throughput = 0.8125;
  r.random_mean = 0.75;
  r.random_ci95 = 0.01;
  r.relative = 1.0833333333333333;
  r.relative_ci95 = 0.02;
  r.cut_bound = 1.5;
  r.cut_gap = 0.6875;
  r.cut_method = "st-mincut(exact)";
  r.scenario = "fail(f=0.1)";
  r.failed_links = 5;
  r.throughput_drop = 0.125;
  r.risk_group = 2;
  r.tm_scale = 1.5;
  r.growth_step = 3;
  r.pivots = 101;
  r.phases = 202;
  r.dijkstras = 303;
  r.pushes = 404;
  r.relabels = 505;
  r.global_relabels = 606;
  r.warm = 1;
  r.solver_threads = 4;
  return r;
}

/// An absolute cell: only the identity columns and throughput are set, so
/// every NA sentinel and zero counter is in effect.
exp::CellResult sentinel_columns() {
  exp::CellResult r;
  r.topology = "Hypercube(d=4)";
  r.servers = 16;
  r.switches = 16;
  r.tm = "A2A";
  r.seed = 123;
  r.solver = "gk(eps=0.05)";
  r.throughput = 0.5;
  return r;
}

TEST(Results, CsvRowRoundTripsEveryColumnByteStable) {
  const exp::CellResult r = all_columns_set();
  const std::string row = exp::csv_row(r);
  // The row's bytes are pinned: results and store records written before
  // this codec must keep reading back identically.
  EXPECT_EQ(row,
            "7,\"BCube(n=2,k=3)\",24,12,RM(5),18446744073709551557,exact-lp,3,"
            "0.8125,0.75,0.01,1.0833333333333333,0.02,1.5,0.6875,"
            "st-mincut(exact),fail(f=0.1),5,0.125,2,1.5,3,101,202,303,404,505,"
            "606,1,4");
  const exp::CellResult back = exp::cell_from_csv_row(row);
  EXPECT_EQ(back.solver_threads, 4);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(exp::csv_row(back), row);
  const exp::CellResult na = sentinel_columns();
  EXPECT_EQ(exp::csv_row(exp::cell_from_csv_row(exp::csv_row(na))),
            exp::csv_row(na));
}

TEST(Results, CsvHeaderIsUnchanged) {
  // The store's schema hash is the header's hash: a changed header orphans
  // every stored record, so it changes only with a deliberate new column.
  EXPECT_EQ(exp::csv_header(),
            "cell,topology,servers,switches,tm,seed,solver,trials,throughput,"
            "random_mean,random_ci95,relative,relative_ci95,cut_bound,cut_gap,"
            "cut_method,scenario,failed_links,throughput_drop,risk_group,"
            "tm_scale,growth_step,pivots,phases,dijkstras,pushes,relabels,"
            "global_relabels,warm,solver_threads");
}

TEST(Results, CellJsonMembersAreTheCsvColumnsInOrder) {
  const json::Value o = exp::cell_json(all_columns_set());
  std::vector<std::string> header;
  std::istringstream in(exp::csv_header());
  for (std::string name; std::getline(in, name, ',');) header.push_back(name);
  std::vector<std::string> members;
  for (const auto& [name, value] : o.members) members.push_back(name);
  EXPECT_EQ(members, header);
}

TEST(Results, CellJsonRendersEveryKind) {
  EXPECT_EQ(
      json::dump(exp::cell_json(all_columns_set())),
      "{\"cell\": 7, \"topology\": \"BCube(n=2,k=3)\", \"servers\": 24, "
      "\"switches\": 12, \"tm\": \"RM(5)\", "
      "\"seed\": \"18446744073709551557\", \"solver\": \"exact-lp\", "
      "\"trials\": 3, \"throughput\": 0.8125, "
      "\"random_mean\": 0.75, \"random_ci95\": 0.01, "
      "\"relative\": 1.0833333333333333, \"relative_ci95\": 0.02, "
      "\"cut_bound\": 1.5, \"cut_gap\": 0.6875, "
      "\"cut_method\": \"st-mincut(exact)\", \"scenario\": \"fail(f=0.1)\", "
      "\"failed_links\": 5, \"throughput_drop\": 0.125, \"risk_group\": 2, "
      "\"tm_scale\": 1.5, \"growth_step\": 3, \"pivots\": 101, "
      "\"phases\": 202, \"dijkstras\": 303, \"pushes\": 404, "
      "\"relabels\": 505, \"global_relabels\": 606, \"warm\": 1, "
      "\"solver_threads\": 4}");
}

TEST(Results, JsonRendersSentinelAsNull) {
  const std::string json = json::dump(exp::cell_json(sentinel_columns()));
  EXPECT_NE(json.find("\"topology\": \"Hypercube(d=4)\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": \"123\""), std::string::npos);
  EXPECT_NE(json.find("\"random_mean\": null"), std::string::npos);
  EXPECT_NE(json.find("\"throughput\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"cut_method\": null"), std::string::npos);
  EXPECT_NE(json.find("\"failed_links\": null"), std::string::npos);
  EXPECT_NE(json.find("\"growth_step\": null"), std::string::npos);
}

TEST(Results, JsonEscapesControlCharactersAndNonFinite) {
  exp::CellResult r;
  r.topology = "line1\nline2\ttab";
  r.tm = "LM";
  r.cut_bound = std::numeric_limits<double>::infinity();
  const std::string json = json::dump(exp::cell_json(r));
  // Raw control characters are illegal inside JSON string literals and
  // Infinity has no literal; both must be rendered escaped / null.
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
  EXPECT_EQ(json.find("line1\nline2"), std::string::npos);
  EXPECT_NE(json.find("\"cut_bound\": null"), std::string::npos);
}

/// csv_row of a comma-free record with column `index` replaced by `value`.
std::string row_with(std::size_t index, const std::string& value) {
  exp::CellResult r = sentinel_columns();
  r.topology = "hc16";
  std::vector<std::string> fields;
  std::istringstream in(exp::csv_row(r));
  for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
  fields.at(index) = value;
  std::string row = fields[0];
  for (std::size_t i = 1; i < fields.size(); ++i) row += ',' + fields[i];
  return row;
}

/// The std::invalid_argument message of cell_from_csv_row(row), or "".
std::string parse_error(const std::string& row) {
  try {
    exp::cell_from_csv_row(row);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Results, CellFromCsvRowRejectsPartialAndMisplacedValues) {
  constexpr std::size_t kServers = 2, kSeed = 5, kThroughput = 8,
                        kCutBound = 13, kFailedLinks = 17;
  // True when replacing column `index` by `value` is an error naming it.
  const auto rejected = [](std::size_t index, const std::string& value,
                           const std::string& column) {
    return parse_error(row_with(index, value)).find("column " + column + ":") !=
           std::string::npos;
  };
  EXPECT_TRUE(rejected(kServers, "abc", "servers"));
  EXPECT_TRUE(rejected(kThroughput, "0.5x", "throughput"));
  EXPECT_TRUE(rejected(kSeed, "-5", "seed"));
  EXPECT_TRUE(rejected(kServers, "", "servers"));
  EXPECT_TRUE(rejected(kServers, " 16", "servers"));
  // "na" is only an NA sentinel where the column has one, and it is the
  // only spelling of NaN; an infinite cut bound (%.17g "inf") round-trips.
  EXPECT_TRUE(rejected(kServers, "na", "servers"));
  EXPECT_TRUE(rejected(kThroughput, "nan", "throughput"));
  EXPECT_TRUE(rejected(kFailedLinks, "-2", "failed_links"));
  EXPECT_EQ(parse_error(row_with(kFailedLinks, "na")), "");
  EXPECT_EQ(exp::cell_from_csv_row(row_with(kFailedLinks, "4")).failed_links,
            4);
  EXPECT_TRUE(
      std::isinf(exp::cell_from_csv_row(row_with(kCutBound, "inf")).cut_bound));
}

TEST(Results, FromCsvKeepsTheRowErrorWithItsRecordNumber) {
  const std::string csv = exp::csv_header() + "\n" + row_with(0, "0") + "\n" +
                          row_with(2, "abc") + "\n";
  try {
    exp::ResultSet::from_csv(csv);
    FAIL() << "from_csv accepted a non-numeric servers field";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("record 2: "), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("column servers"), std::string::npos)
        << e.what();
  }
  try {
    exp::ResultSet::from_csv(exp::csv_header() + "\n0,hc16\n");
    FAIL() << "from_csv accepted a short row";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("record 1: "), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("arity"), std::string::npos);
  }
}

TEST(Results, AtFindsCellAndThrowsOnMiss) {
  const exp::Sweep sweep = tiny_sweep(/*trials=*/0);
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  const exp::CellResult& cell = rs.at(sweep.topologies[0].label, "LM");
  EXPECT_EQ(cell.tm, "LM");
  EXPECT_GT(cell.throughput, 0.0);
  EXPECT_THROW(rs.at("nope", "A2A"), std::out_of_range);
}

TEST(Runner, CutBoundColumnsFilledWhenEnabled) {
  exp::Sweep sweep = tiny_sweep(/*trials=*/0);
  sweep.cut_bounds = true;
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions{});
  ASSERT_EQ(rs.size(), 2u);
  for (const exp::CellResult& r : rs.rows()) {
    // Hypercube(16) under A2A/LM solves via ExactLP, so the certified cut
    // bound must sit at or above the exact throughput.
    EXPECT_FALSE(std::isnan(r.cut_bound)) << r.tm;
    EXPECT_GE(r.cut_bound * (1.0 + 1e-9), r.throughput) << r.tm;
    EXPECT_DOUBLE_EQ(r.cut_gap, r.cut_bound / r.throughput);
    EXPECT_FALSE(r.cut_method.empty());
    EXPECT_NE(r.cut_method.find('('), std::string::npos) << r.cut_method;
  }
  // Disabled sweeps must keep the sentinel (and a distinct cache entry).
  exp::Sweep off = tiny_sweep(/*trials=*/0);
  const exp::ResultSet rs_off = runner.run(off, exp::RunOptions{});
  EXPECT_TRUE(std::isnan(rs_off.rows()[0].cut_bound));
  EXPECT_TRUE(rs_off.rows()[0].cut_method.empty());
  EXPECT_EQ(runner.cache_stats().hits, 0u);
  EXPECT_EQ(runner.cache_stats().misses, 4u);
}

TEST(Sweep, ExpansionGainsScenarioAxisInFailuresMode) {
  exp::Sweep s;
  s.topologies = {exp::representative_spec(Family::Hypercube, 16, 1),
                  exp::representative_spec(Family::FatTree, 16, 1)};
  s.tms = {exp::a2a_tm(), exp::longest_matching_tm()};
  s.scenarios = exp::random_failure_scenarios({0.1, 0.2});
  s.scenarios.push_back(exp::degrade_scenario(0.5));
  const std::vector<exp::Cell> cells = exp::expand(s);
  ASSERT_EQ(cells.size(), 12u);  // 2 topos x 2 tms x 3 scenarios
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].topo, i / 6);
    EXPECT_EQ(cells[i].tm, (i / 3) % 2);
    EXPECT_EQ(cells[i].scenario, i % 3);
  }
  EXPECT_EQ(s.scenarios[0].label, "fail(f=0.1)");
  EXPECT_EQ(s.scenarios[2].label, "degrade(c=0.5)");
}

TEST(Runner, FailureCellsFillScenarioColumnsDeterministically) {
  exp::Sweep sweep = tiny_sweep(/*trials=*/0);
  sweep.scenarios = exp::random_failure_scenarios({0.15});
  sweep.scenarios.push_back(exp::degrade_scenario(0.5));
  exp::Runner serial(/*parallel=*/false);
  const exp::ResultSet rs = serial.run(sweep, exp::RunOptions{});
  ASSERT_EQ(rs.size(), 4u);  // 1 topo x 2 tms x 2 scenarios
  const std::shared_ptr<const Network> net = sweep.topologies[0].build();
  for (const exp::CellResult& r : rs.rows()) {
    // Every cell here is ExactLP, which keeps no state between solves: a
    // failure row is bitwise a fresh engine's apply_scenario and cold solve
    // of the group's TM (built from its scenario-0 cell stream).
    const std::size_t group = r.cell / sweep.scenarios.size();
    const std::size_t floor = group * sweep.scenarios.size();
    const TrafficMatrix tm = sweep.tms[group % sweep.tms.size()].build(
        *net, mix_seed(mix_seed(sweep.base_seed, floor), 0));
    mcf::ThroughputEngine fresh(*net);
    fresh.apply_scenario(test_ref::runner_spec(sweep, r.cell));
    const mcf::ThroughputResult cold = fresh.solve(tm, sweep.solve);
    ASSERT_EQ(cold.solver, "exact-lp") << r.scenario;
    EXPECT_EQ(r.throughput, cold.throughput) << r.scenario << " " << r.tm;
    EXPECT_EQ(r.pivots, cold.stats.pivots) << r.scenario << " " << r.tm;
    EXPECT_EQ(r.warm, 1) << r.scenario;
    EXPECT_FALSE(r.scenario.empty());
    EXPECT_GE(r.failed_links, 0);
    EXPECT_FALSE(std::isnan(r.throughput_drop)) << r.scenario;
    if (r.scenario == "degrade(c=0.5)") {
      EXPECT_EQ(r.failed_links, 0);
      // Halving every capacity exactly halves the (here exact) optimum.
      EXPECT_NEAR(r.throughput_drop, 0.5, 1e-6) << r.tm;
    } else {
      EXPECT_GT(r.failed_links, 0);  // 15% of a hypercube's edges
      EXPECT_GE(r.throughput_drop, -1e-9);
    }
  }
  // The in-process contract: parallel cell distribution must not change a
  // single byte of the emitted CSV (failure sampling is per-cell seeded).
  if (ThreadPool::shared().size() > 1) {
    exp::Runner parallel(/*parallel=*/true);
    EXPECT_EQ(parallel.run(sweep, exp::RunOptions{}).to_csv(), rs.to_csv());
  }
}

TEST(Runner, FailureCacheKeysIncludeScenarioAxisShape) {
  // A failure cell's TM comes from its group's scenario-0 cell stream, so
  // its result depends on the scenario-axis shape, not just its own
  // scenario label. Sweeps A = [p, q, r] and B = [q, p] place label p at
  // the same flat index (group 1, indices 3 vs 3) with the same cell seed
  // but different group TM streams — without the scenario list in the
  // cache fingerprint, B would be answered with A's row. Random-matching
  // TMs make the group stream actually matter.
  exp::Sweep a = tiny_sweep(/*trials=*/0);
  a.tms = {exp::random_matching_tm(1), exp::random_matching_tm(2)};
  a.scenarios = {exp::degrade_scenario(0.5), exp::degrade_scenario(0.8),
                 exp::degrade_scenario(0.9)};
  exp::Sweep b = a;
  b.scenarios = {exp::degrade_scenario(0.8), exp::degrade_scenario(0.5)};

  exp::Runner shared_runner;
  (void)shared_runner.run(a, exp::RunOptions{});
  const std::string b_after_a =
      shared_runner.run(b, exp::RunOptions{}).to_csv();
  exp::Runner fresh_runner;
  EXPECT_EQ(fresh_runner.run(b, exp::RunOptions{}).to_csv(), b_after_a);
}

TEST(Runner, ModeValidationRejectsUnsupportedCombinations) {
  exp::Runner runner;
  exp::Sweep failures = tiny_sweep(/*trials=*/2);
  failures.scenarios = exp::random_failure_scenarios({0.1});
  EXPECT_THROW(runner.run(failures, exp::RunOptions{}),
               std::invalid_argument);  // trials > 0
  // Cut bounds run in failures mode, priced on the degraded network.
  failures.trials = 0;
  failures.cut_bounds = true;
  const exp::ResultSet with_cuts = runner.run(failures, exp::RunOptions{});
  for (const exp::CellResult& r : with_cuts.rows()) {
    EXPECT_FALSE(r.cut_method.empty());
    EXPECT_GE(r.cut_bound, r.throughput * (1.0 - 1e-9)) << r.tm;
  }
  failures.scenarios[0].label.clear();
  EXPECT_THROW(runner.run(failures, exp::RunOptions{}),
               std::invalid_argument);  // empty label
}

TEST(Rng, ThreeWayMixMatchesNestedTwoWayMix) {
  EXPECT_EQ(mix_seed(1, 2, 3), mix_seed(mix_seed(1, 2), 3));
  EXPECT_NE(mix_seed(1, 2, 3), mix_seed(1, 3, 2));
}

}  // namespace
}  // namespace tb
