// Distributed sweep sharding (exp/shard.h + Runner sharding): the
// differential battery behind the byte-identical-merge contract.
//
// The load-bearing property: for every sweep mode and every shard count,
// running each shard in its own Runner (its own "machine"), concatenating
// the emitted slices in any order, and merging them reproduces the
// unsharded CSV emission byte for byte. Everything else here — partition
// tiling, header round-trips, strict spec parsing, merge negative paths,
// global-index cache identity — exists to keep that property honest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/shard.h"
#include "exp/sweep.h"
#include "pool_test_env.h"

namespace tb {
namespace {

[[maybe_unused]] const int kForcePoolThreads = test_env::force_pool_threads();

/// Scoped TOPOBENCH_SHARD (or any env knob) override, restored on exit so
/// tests cannot leak sharding into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string old_;
  bool had_old_ = false;
};

/// 2 topologies x 3 TMs = 6 cells; ExactLP-solvable at 16 servers.
exp::Sweep grid_sweep(int trials = 0) {
  exp::Sweep s;
  s.topologies = {exp::representative_spec(Family::Hypercube, 16, 1),
                  exp::representative_spec(Family::FatTree, 16, 1)};
  s.tms = {exp::a2a_tm(), exp::random_matching_tm(1),
           exp::longest_matching_tm()};
  s.trials = trials;
  s.base_seed = 5;
  return s;
}

/// 1 topology x 2 TMs x 3 scenarios = 6 cells; exercises fleet grouping.
exp::Sweep failures_sweep() {
  exp::Sweep s;
  s.topologies = {exp::representative_spec(Family::Hypercube, 16, 1)};
  s.tms = {exp::a2a_tm(), exp::longest_matching_tm()};
  s.scenarios = exp::random_failure_scenarios({0.1, 0.2});
  s.scenarios.push_back(exp::degrade_scenario(0.5));
  s.base_seed = 5;
  return s;
}

/// The unsharded CSV emission (what ResultSet::emit writes in CSV mode):
/// "# caption", header + rows, trailing blank line. merge_slices must
/// reproduce these bytes exactly.
std::string unsharded_emission(exp::Runner& runner, const exp::Sweep& sweep,
                               const std::string& caption) {
  return "# " + caption + "\n" +
         runner.run(sweep, exp::RunOptions{}).to_csv() + "\n";
}

/// Emit every shard of an n-way split, each from its own fresh Runner (a
/// separate machine: cold cache, no shared state).
std::vector<std::string> shard_emissions(const exp::Sweep& sweep,
                                         std::size_t n,
                                         const std::string& caption) {
  std::vector<std::string> slices;
  for (std::size_t i = 0; i < n; ++i) {
    exp::Runner runner;
    exp::RunOptions opts;
    opts.shard = exp::ShardSpec{i, n};
    std::ostringstream os;
    runner.run(sweep, opts).emit(os, caption);
    slices.push_back(os.str());
  }
  return slices;
}

std::string merge(const std::vector<std::string>& slices) {
  std::string cat;
  for (const std::string& s : slices) cat += s;
  std::istringstream in(cat);
  return exp::merge_slices(in);
}

void expect_merge_error(const std::vector<std::string>& slices,
                        const std::string& needle) {
  try {
    (void)merge(slices);
    FAIL() << "merge unexpectedly succeeded; wanted error containing \""
           << needle << '"';
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

/// The differential property: n-way sharded + merged == unsharded, for
/// every concatenation order (merge sorts by declared range).
void expect_sharded_merge_identical(const exp::Sweep& sweep,
                                    const std::string& caption,
                                    std::initializer_list<std::size_t> ns) {
  exp::Runner base;
  const std::string expected = unsharded_emission(base, sweep, caption);
  for (const std::size_t n : ns) {
    std::vector<std::string> slices = shard_emissions(sweep, n, caption);
    EXPECT_EQ(merge(slices), expected) << n << "-way merge";
    std::reverse(slices.begin(), slices.end());
    EXPECT_EQ(merge(slices), expected) << n << "-way merge, reversed order";
  }
}

// --- partition contract --------------------------------------------------

TEST(ShardRange, TilesEveryGridDisjointlyAndExhaustively) {
  for (const std::size_t total : {0u, 1u, 2u, 5u, 6u, 7u, 12u, 97u}) {
    for (const std::size_t n : {1u, 2u, 3u, 4u, 7u}) {
      std::size_t covered = 0;
      std::size_t min_size = total + 1;
      std::size_t max_size = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const exp::CellRange r = exp::shard_range(total, {i, n});
        EXPECT_EQ(r.lo, covered) << total << " cells, shard " << i << "/" << n;
        EXPECT_LE(r.lo, r.hi);
        covered = r.hi;
        min_size = std::min(min_size, r.hi - r.lo);
        max_size = std::max(max_size, r.hi - r.lo);
      }
      EXPECT_EQ(covered, total) << n << " shards must cover " << total;
      EXPECT_LE(max_size - min_size, 1u) << "unbalanced " << n << "-way split";
    }
  }
}

TEST(ShardRange, MoreShardsThanCellsYieldsEmptyTails) {
  const exp::CellRange r = exp::shard_range(2, {5, 7});
  EXPECT_EQ(r.lo, r.hi);  // legal: the shard simply emits an empty slice
}

// --- spec parsing --------------------------------------------------------

TEST(ShardSpec, ParsesWellFormedSpecs) {
  const exp::ShardSpec whole = exp::parse_shard_spec("0/1");
  EXPECT_TRUE(whole.whole());
  const exp::ShardSpec s = exp::parse_shard_spec("2/4");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_TRUE(s.valid());
  EXPECT_FALSE(s.whole());
}

TEST(ShardSpec, RejectsMalformedSpecsLoudly) {
  for (const char* bad :
       {"0/0", "3/2", "4/4", "-1/4", "1e2/4", "garbage", "", "/4", "1/",
        "1/2/3", "1.5/4", " 1/4", "1/4 ", "99999999999999/4"}) {
    EXPECT_THROW((void)exp::parse_shard_spec(bad), std::invalid_argument)
        << '"' << bad << '"';
  }
}

TEST(ShardSpec, EnvKnobParsesOrThrows) {
  {
    ScopedEnv env("TOPOBENCH_SHARD", "1/3");
    const auto spec = exp::env_shard();
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->index, 1u);
    EXPECT_EQ(spec->count, 3u);
  }
  {
    ScopedEnv env("TOPOBENCH_SHARD", "3/2");
    EXPECT_THROW((void)exp::env_shard(), std::invalid_argument);
  }
}

// --- slice header --------------------------------------------------------

TEST(SliceHeader, RoundTripsThroughItsLine) {
  exp::SliceMeta meta;
  meta.grid = 0x0123456789abcdefULL;
  meta.total = 10;
  meta.shard = {2, 4};
  const exp::CellRange r = exp::shard_range(meta.total, meta.shard);
  meta.lo = r.lo;
  meta.hi = r.hi;
  const std::string line = exp::slice_header_line(meta);
  EXPECT_TRUE(exp::is_slice_header_line(line));
  EXPECT_FALSE(exp::is_slice_header_line("# just a caption"));
  const exp::SliceMeta parsed = exp::parse_slice_header_line(line);
  EXPECT_EQ(parsed.grid, meta.grid);
  EXPECT_EQ(parsed.total, meta.total);
  EXPECT_EQ(parsed.shard.index, meta.shard.index);
  EXPECT_EQ(parsed.shard.count, meta.shard.count);
  EXPECT_EQ(parsed.lo, meta.lo);
  EXPECT_EQ(parsed.hi, meta.hi);
}

TEST(SliceHeader, RejectsTamperedLines) {
  // Garbage, trailing junk, an invalid shard, and a range that disagrees
  // with the partition function are all hand-edit symptoms; each must
  // throw rather than merge quietly.
  const char* bad[] = {
      "#! not a slice header",
      "#! topobench-slice v2 grid=0000000000000001 cells=4 shard=0/2 "
      "range=[0,2)",
      "#! topobench-slice v1 grid=0000000000000001 cells=4 shard=0/2 "
      "range=[0,2) extra",
      "#! topobench-slice v1 grid=0000000000000001 cells=4 shard=2/2 "
      "range=[0,2)",
      "#! topobench-slice v1 grid=0000000000000001 cells=4 shard=0/2 "
      "range=[0,3)",
  };
  for (const char* line : bad) {
    EXPECT_THROW((void)exp::parse_slice_header_line(line),
                 std::invalid_argument)
        << line;
  }
}

// --- grid fingerprint ----------------------------------------------------

TEST(GridFingerprint, TracksStructuralIdentityOnly) {
  const std::uint64_t fp = exp::grid_fingerprint(grid_sweep());
  EXPECT_EQ(exp::grid_fingerprint(grid_sweep()), fp);  // deterministic

  exp::Sweep s = grid_sweep();
  s.base_seed = 6;
  EXPECT_NE(exp::grid_fingerprint(s), fp);
  EXPECT_NE(exp::grid_fingerprint(grid_sweep(/*trials=*/2)), fp);
  s = grid_sweep();
  s.cut_bounds = true;
  EXPECT_NE(exp::grid_fingerprint(s), fp);
  s = grid_sweep();
  s.solve.epsilon *= 0.5;
  EXPECT_NE(exp::grid_fingerprint(s), fp);
  s = grid_sweep();
  std::swap(s.tms[0], s.tms[1]);  // axis order defines cell indices
  EXPECT_NE(exp::grid_fingerprint(s), fp);
  s = grid_sweep();
  s.topologies.pop_back();
  EXPECT_NE(exp::grid_fingerprint(s), fp);
  s = grid_sweep();
  s.scenarios = {exp::degrade_scenario(0.5)};
  EXPECT_NE(exp::grid_fingerprint(s), fp);
}

// --- pinned cache / store identity --------------------------------------

/// `key` with each '\x1f' separator shown as "^_", so pinned keys read as
/// plain literals.
std::string visible_key(const std::string& key) {
  std::string out;
  for (const char c : key) {
    if (c == '\x1f') {
      out += "^_";
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<std::string> visible_cell_keys(const exp::Sweep& sweep) {
  std::vector<std::string> keys;
  for (const exp::Cell& cell : exp::expand(sweep)) {
    keys.push_back(visible_key(exp::cell_result_key(sweep, cell)));
  }
  return keys;
}

TEST(GridFingerprint, CacheAndStoreIdentityIsPinned) {
  // Stores and slices written by earlier builds are addressed by these
  // exact bytes: a refactor that changes any of them orphans every
  // persisted record. Absolute, cut-bound and failure-axis sweeps.
  exp::Sweep absolute;
  absolute.topologies = {exp::representative_spec(Family::Hypercube, 16, 1),
                         exp::representative_spec(Family::Jellyfish, 16, 2)};
  absolute.tms = {exp::a2a_tm(), exp::longest_matching_tm()};
  absolute.solve.epsilon = 0.05;
  absolute.base_seed = 7;
  exp::Sweep cut = absolute;
  cut.cut_bounds = true;
  exp::Sweep failures = absolute;
  failures.topologies.pop_back();
  failures.tms.pop_back();
  failures.scenarios = exp::random_failure_scenarios({0.05});
  failures.scenarios.push_back(exp::degrade_scenario(0.5));

  const std::string cfg = "k0|e0.050000000000000003|s36|z4096";
  EXPECT_EQ(visible_cell_keys(absolute),
            (std::vector<std::string>{
                "Hypercube(d=4)^_A2A^_^_11601954920945687888^_" + cfg + "^_0",
                "Hypercube(d=4)^_LM^_^_7007307406066676594^_" + cfg + "^_0",
                "Jellyfish(n=32,r=7)^_A2A^_^_17224172085814043037^_" + cfg +
                    "^_0",
                "Jellyfish(n=32,r=7)^_LM^_^_12488659736379936141^_" + cfg +
                    "^_0",
            }));
  const std::string cb = cfg + "|cb|f10000|q8|b1";
  EXPECT_EQ(visible_cell_keys(cut),
            (std::vector<std::string>{
                "Hypercube(d=4)^_A2A^_^_11601954920945687888^_" + cb + "^_0",
                "Hypercube(d=4)^_LM^_^_7007307406066676594^_" + cb + "^_0",
                "Jellyfish(n=32,r=7)^_A2A^_^_17224172085814043037^_" + cb +
                    "^_0",
                "Jellyfish(n=32,r=7)^_LM^_^_12488659736379936141^_" + cb +
                    "^_0",
            }));
  const std::string fleet = cfg + "|fleet^_fail(f=0.05)^_degrade(c=0.5)";
  EXPECT_EQ(visible_cell_keys(failures),
            (std::vector<std::string>{
                "Hypercube(d=4)^_A2A^_fail(f=0.05)^_11601954920945687888^_" +
                    fleet + "^_0",
                "Hypercube(d=4)^_A2A^_degrade(c=0.5)^_7007307406066676594^_" +
                    fleet + "^_0",
            }));
  EXPECT_EQ(exp::grid_fingerprint(absolute), 4330934264754596093ULL);
  EXPECT_EQ(exp::grid_fingerprint(cut), 12873092711951783533ULL);
  EXPECT_EQ(exp::grid_fingerprint(failures), 12073887904355886941ULL);
}

// --- the differential property -------------------------------------------

TEST(ShardMerge, AbsoluteModeMergesByteIdentical) {
  expect_sharded_merge_identical(grid_sweep(), "absolute grid",
                                 {1, 2, 3, 4, 7});
}

TEST(ShardMerge, RelativeModeMergesByteIdentical) {
  // Trials consume per-(cell, trial) seed streams; global indices keep
  // them position-stable across shards.
  exp::Sweep s = grid_sweep(/*trials=*/2);
  s.tms.pop_back();  // 4 cells keep the 18 runs cheap
  expect_sharded_merge_identical(s, "relative grid", {1, 2, 3, 4, 7});
}

TEST(ShardMerge, CutBoundModeMergesByteIdentical) {
  exp::Sweep s = grid_sweep();
  s.topologies.pop_back();
  s.tms.pop_back();  // 2 cells: the cut survey is the expensive part
  s.cut_bounds = true;
  expect_sharded_merge_identical(s, "cut-bound grid", {1, 2, 3, 7});
}

TEST(ShardMerge, FailuresModeMergesByteIdentical) {
  // n=4 splits a (topology, TM) fleet group mid-scenario: the shard's
  // group floor arithmetic must use global cell indices or the group TM
  // (and every degraded value after it) silently changes.
  expect_sharded_merge_identical(failures_sweep(), "failures grid",
                                 {1, 2, 3, 4, 7});
}

TEST(ShardMerge, SharedRunnerAcrossShardsChangesNothing) {
  // All shards on ONE runner (one machine simulating a fleet): cache
  // entries written by earlier shards must not perturb later ones, in
  // either evaluation order.
  const exp::Sweep sweep = grid_sweep();
  exp::Runner base;
  const std::string expected = unsharded_emission(base, sweep, "grid");
  for (const bool reversed : {false, true}) {
    exp::Runner shared;
    std::vector<std::string> slices(4);
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t i = reversed ? 3 - k : k;
      exp::RunOptions opts;
      opts.shard = exp::ShardSpec{i, 4};
      std::ostringstream os;
      shared.run(sweep, opts).emit(os, "grid");
      slices[i] = os.str();
    }
    EXPECT_EQ(merge(slices), expected) << (reversed ? "reversed" : "forward");
    EXPECT_EQ(shared.cache_stats().misses, 6u) << "shards must not overlap";
  }
}

// --- merge negative paths ------------------------------------------------

TEST(ShardMerge, RejectsOverlappingSlices) {
  std::vector<std::string> slices = shard_emissions(grid_sweep(), 2, "grid");
  slices.push_back(slices[0]);  // shard 0 submitted twice
  expect_merge_error(slices, "overlapping slices");
}

TEST(ShardMerge, RejectsMissingSlices) {
  std::vector<std::string> slices = shard_emissions(grid_sweep(), 3, "grid");
  slices.erase(slices.begin() + 1);  // lose the middle shard
  expect_merge_error(slices, "missing slice covering cells [2,4)");
  slices = shard_emissions(grid_sweep(), 3, "grid");
  slices.pop_back();  // lose the tail
  expect_merge_error(slices, "missing slice covering cells [4,6)");
}

TEST(ShardMerge, RejectsSlicesFromDifferentSweeps) {
  exp::Sweep other = grid_sweep();
  other.base_seed = 99;  // same shape, different grid identity
  const std::vector<std::string> a = shard_emissions(grid_sweep(), 2, "grid");
  const std::vector<std::string> b = shard_emissions(other, 2, "grid");
  expect_merge_error({a[0], b[1]}, "mismatched grid fingerprints");
}

TEST(ShardMerge, RejectsMismatchedCaptions) {
  const std::vector<std::string> a = shard_emissions(grid_sweep(), 2, "one");
  const std::vector<std::string> b = shard_emissions(grid_sweep(), 2, "two");
  expect_merge_error({a[0], b[1]}, "mismatched captions");
}

TEST(ShardMerge, RejectsTamperedRows) {
  std::vector<std::string> slices = shard_emissions(grid_sweep(), 2, "grid");
  // Renumber shard 1's first row (cell 3) to cell 9: the row-vs-range
  // check must catch it even though the byte count is unchanged.
  const std::size_t pos = slices[1].find("\n3,");
  ASSERT_NE(pos, std::string::npos);
  slices[1].replace(pos, 3, "\n9,");
  expect_merge_error(slices, "carries cell 9");
}

TEST(ShardMerge, RejectsDroppedRows) {
  std::vector<std::string> slices = shard_emissions(grid_sweep(), 2, "grid");
  // Delete shard 1's last row: the slice then carries fewer rows than its
  // declared range.
  const std::size_t pos = slices[1].find("\n5,");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = slices[1].find('\n', pos + 1);
  ASSERT_NE(end, std::string::npos);
  slices[1].erase(pos, end - pos);
  expect_merge_error(slices, "carries 2 rows");
}

TEST(ShardMerge, RejectsUnshardedInputAndEmptyInput) {
  exp::Runner runner;
  const std::string plain = unsharded_emission(runner, grid_sweep(), "grid");
  expect_merge_error({plain}, "data outside any slice");
  expect_merge_error({}, "no slices in input");
  // A slice header with its caption stripped is a truncation symptom.
  std::vector<std::string> slices = shard_emissions(grid_sweep(), 1, "grid");
  const std::size_t nl = slices[0].find('\n');
  ASSERT_NE(nl, std::string::npos);
  slices[0].erase(0, nl + 1);
  expect_merge_error(slices, "without a preceding");
}

// --- runner integration --------------------------------------------------

TEST(ShardRun, EnvKnobShardsARunIntoASlice) {
  const exp::Sweep sweep = grid_sweep();
  exp::Runner base;
  const exp::ResultSet whole = base.run(sweep, exp::RunOptions::from_env());
  EXPECT_FALSE(whole.slice().has_value());  // unsharded emission unchanged

  ScopedEnv env("TOPOBENCH_SHARD", "1/2");
  exp::Runner runner;
  const exp::ResultSet slice = runner.run(sweep, exp::RunOptions::from_env());
  ASSERT_TRUE(slice.slice().has_value());
  EXPECT_EQ(slice.slice()->grid, exp::grid_fingerprint(sweep));
  EXPECT_EQ(slice.slice()->total, 6u);
  EXPECT_EQ(slice.slice()->lo, 3u);
  EXPECT_EQ(slice.slice()->hi, 6u);
  // The slice's rows are bitwise the unsharded rows [3, 6).
  ASSERT_EQ(slice.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(slice.rows()[k].cell, 3 + k);  // global, not slice-local
    EXPECT_EQ(slice.rows()[k].seed, whole.rows()[3 + k].seed);
    EXPECT_EQ(slice.rows()[k].throughput, whole.rows()[3 + k].throughput);
  }
}

TEST(ShardRun, MalformedEnvKnobFailsTheRunLoudly) {
  // A fleet member with a typo'd TOPOBENCH_SHARD must abort, not silently
  // evaluate the whole grid (which would corrupt the merge).
  const exp::Sweep sweep = grid_sweep();
  for (const char* bad : {"0/0", "3/2", "-1/4", "garbage"}) {
    ScopedEnv env("TOPOBENCH_SHARD", bad);
    exp::Runner runner;
    EXPECT_THROW((void)runner.run(sweep, exp::RunOptions::from_env()),
                 std::invalid_argument)
        << bad;
  }
}

TEST(ShardRun, ProgrammaticInvalidSpecThrows) {
  exp::Runner runner;
  exp::RunOptions opts;
  opts.shard = exp::ShardSpec{3, 2};
  EXPECT_THROW((void)runner.run(grid_sweep(), opts), std::invalid_argument);
  opts.shard = exp::ShardSpec{0, 0};
  EXPECT_THROW((void)runner.run(grid_sweep(), opts), std::invalid_argument);
}

TEST(ShardRun, CacheKeysUseGlobalCellIndices) {
  // Satellite regression: a shard's cache entries must be keyed on global
  // cell indices, so a later full run on the same Runner hits exactly the
  // shard's cells and still reproduces the unsharded bytes.
  const exp::Sweep sweep = grid_sweep();
  exp::Runner fresh;
  const std::string expected = fresh.run(sweep, exp::RunOptions{}).to_csv();

  exp::Runner runner;
  exp::RunOptions opts;
  opts.shard = exp::ShardSpec{1, 3};  // cells [2, 4)
  (void)runner.run(sweep, opts);
  EXPECT_EQ(runner.cache_stats().misses, 2u);
  const exp::ResultSet full = runner.run(sweep, exp::RunOptions{});
  EXPECT_EQ(runner.cache_stats().hits, 2u);    // the shard's cells
  EXPECT_EQ(runner.cache_stats().misses, 6u);  // 2 sharded + 4 remaining
  EXPECT_EQ(full.to_csv(), expected);
}

TEST(ShardRun, EmptyShardEmitsAMergeableEmptySlice) {
  // More shards than cells: the tail shards hold zero rows but still emit
  // verifiable slices — the merge needs them to prove exhaustive coverage.
  const exp::Sweep sweep = grid_sweep();
  exp::Runner runner;
  exp::RunOptions opts;
  opts.shard = exp::ShardSpec{6, 7};  // 6 cells, 7 shards: shard 6 is empty
  const exp::ResultSet slice = runner.run(sweep, opts);
  EXPECT_EQ(slice.size(), 0u);
  ASSERT_TRUE(slice.slice().has_value());
  EXPECT_EQ(slice.slice()->lo, slice.slice()->hi);
}

}  // namespace
}  // namespace tb
