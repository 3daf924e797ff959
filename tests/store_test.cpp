// On-disk result store: format round-trip, integrity rejection, locking,
// live-reader refresh, and the PR acceptance pin — a sweep run twice
// through the store answers the second run entirely from disk with
// byte-identical CSV.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/registry.h"
#include "exp/results.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "store/result_store.h"

namespace tb {
namespace {

using store::ResultStore;

/// Fresh per-test store path (removed up front: tests may run concurrently
/// from one binary across ctest jobs, so the name carries test + pid).
std::string fresh_path(const std::string& name) {
  const std::string path = testing::TempDir() + "topobench_store_" + name +
                           "_" + std::to_string(::getpid()) + ".store";
  std::remove(path.c_str());
  return path;
}

exp::CellResult sample_result(std::size_t cell) {
  exp::CellResult r;
  r.cell = cell;
  r.topology = "hypercube(n=16)";
  r.servers = 16;
  r.switches = 16;
  r.tm = "A2A";
  r.seed = 0x9e3779b97f4a7c15ULL + cell;
  r.solver = "auto(eps=0.1)";
  r.throughput = 2.0000000000005045;
  r.pivots = 1079;
  return r;
}

TEST(ResultStoreTest, RoundTripsRecordsBitExactly) {
  const std::string path = fresh_path("roundtrip");
  ResultStore store(path, ResultStore::Mode::ReadWrite);
  EXPECT_EQ(store.size(), 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    store.put("key-" + std::to_string(i), sample_result(i));
  }
  EXPECT_EQ(store.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto got = store.get("key-" + std::to_string(i));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(exp::csv_row(*got), exp::csv_row(sample_result(i)));
  }
  EXPECT_FALSE(store.get("absent").has_value());
}

TEST(ResultStoreTest, RoundTripsQuotedAndNaNFields) {
  const std::string path = fresh_path("quoting");
  exp::CellResult tricky = sample_result(0);
  tricky.topology = "odd,\"name\"\nwith newline";
  tricky.scenario = "fail(f=0.25)";
  tricky.failed_links = 3;
  tricky.cut_method = "st-mincut(exact)";
  tricky.cut_bound = 2.5;
  {
    ResultStore store(path, ResultStore::Mode::ReadWrite);
    store.put("tricky\x1fkey", tricky);
  }
  ResultStore reread(path, ResultStore::Mode::ReadOnly);
  const auto got = reread.get("tricky\x1fkey");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(exp::csv_row(*got), exp::csv_row(tricky));
}

TEST(ResultStoreTest, PersistsAcrossReopen) {
  const std::string path = fresh_path("reopen");
  {
    ResultStore store(path, ResultStore::Mode::ReadWrite);
    store.put("k", sample_result(0));
  }
  ResultStore store(path, ResultStore::Mode::ReadWrite);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.get("k").has_value());
}

TEST(ResultStoreTest, PutIsIdempotentAndConflictsThrow) {
  const std::string path = fresh_path("idempotent");
  ResultStore store(path, ResultStore::Mode::ReadWrite);
  store.put("k", sample_result(0));
  store.put("k", sample_result(0));  // identical bytes: no-op
  EXPECT_EQ(store.size(), 1u);
  exp::CellResult different = sample_result(0);
  different.throughput = 1.5;
  EXPECT_THROW(store.put("k", different), std::runtime_error);
}

TEST(ResultStoreTest, ReadOnlyRejectsPutAndMissingFile) {
  const std::string path = fresh_path("readonly");
  {
    ResultStore writer(path, ResultStore::Mode::ReadWrite);
    writer.put("k", sample_result(0));
  }
  ResultStore reader(path, ResultStore::Mode::ReadOnly);
  EXPECT_THROW(reader.put("x", sample_result(1)), std::logic_error);
  EXPECT_THROW(
      ResultStore(fresh_path("readonly_missing"), ResultStore::Mode::ReadOnly),
      std::runtime_error);
}

TEST(ResultStoreTest, SecondWriterIsLockedOut) {
  const std::string path = fresh_path("lock");
  ResultStore first(path, ResultStore::Mode::ReadWrite);
  EXPECT_THROW(ResultStore(path, ResultStore::Mode::ReadWrite),
               std::runtime_error);
  // Readers are never locked out.
  first.put("k", sample_result(0));
  ResultStore reader(path, ResultStore::Mode::ReadOnly);
  EXPECT_TRUE(reader.get("k").has_value());
}

TEST(ResultStoreTest, FlippedValueByteIsRejectedLoudly) {
  const std::string path = fresh_path("corrupt");
  {
    ResultStore store(path, ResultStore::Mode::ReadWrite);
    store.put("k", sample_result(0));
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Flip a digit inside the stored throughput value.
  const std::size_t pos = bytes.find("2.0000000000005045");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = '3';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(ResultStore(path, ResultStore::Mode::ReadOnly),
               std::runtime_error);
}

TEST(ResultStoreTest, WrongMagicOrSchemaIsRejected) {
  const std::string path = fresh_path("magic");
  {
    std::ofstream out(path, std::ios::binary);
    out << "#! topobench-store v999 schema=0000000000000000\n";
  }
  EXPECT_THROW(ResultStore(path, ResultStore::Mode::ReadOnly),
               std::runtime_error);
  EXPECT_THROW(ResultStore(path, ResultStore::Mode::ReadWrite),
               std::runtime_error);
}

TEST(ResultStoreTest, TruncatedTailToleratedByReaderRejectedByWriter) {
  const std::string path = fresh_path("tail");
  {
    ResultStore store(path, ResultStore::Mode::ReadWrite);
    store.put("k0", sample_result(0));
  }
  // Simulate a torn in-flight append: a frame header with no payload yet.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "@ 2 400 0123456789abcdef\nk1";
  }
  ResultStore reader(path, ResultStore::Mode::ReadOnly);
  EXPECT_EQ(reader.size(), 1u);  // stops before the torn tail
  EXPECT_TRUE(reader.get("k0").has_value());
  EXPECT_THROW(ResultStore(path, ResultStore::Mode::ReadWrite),
               std::runtime_error);
}

TEST(ResultStoreTest, RefreshPicksUpLiveAppends) {
  const std::string path = fresh_path("refresh");
  ResultStore writer(path, ResultStore::Mode::ReadWrite);
  writer.put("k0", sample_result(0));
  ResultStore reader(path, ResultStore::Mode::ReadOnly);
  EXPECT_EQ(reader.size(), 1u);
  writer.put("k1", sample_result(1));
  writer.put("k2", sample_result(2));
  EXPECT_FALSE(reader.get("k1").has_value());  // not yet scanned
  EXPECT_EQ(reader.refresh(), 2u);
  EXPECT_TRUE(reader.get("k1").has_value());
  EXPECT_TRUE(reader.get("k2").has_value());
  EXPECT_EQ(reader.refresh(), 0u);
}

// --- acceptance pin ------------------------------------------------------

exp::Sweep tiny_sweep() {
  exp::Sweep sweep;
  sweep.topologies = {exp::representative_spec(Family::Hypercube, 16, 1),
                      exp::representative_spec(Family::FatTree, 16, 1)};
  sweep.tms = {exp::a2a_tm(), exp::longest_matching_tm()};
  sweep.solve.epsilon = 0.1;
  sweep.base_seed = 11;
  return sweep;
}

TEST(ResultStoreTest, SecondSweepRunAnswersEntirelyFromDiskByteIdentical) {
  const std::string path = fresh_path("acceptance");
  const exp::Sweep sweep = tiny_sweep();
  std::string first_csv;
  {
    exp::Runner runner;
    exp::RunOptions opts;
    opts.store = std::make_shared<ResultStore>(path,
                                               ResultStore::Mode::ReadWrite);
    first_csv = runner.run(sweep, opts).to_csv();
    EXPECT_EQ(runner.cache_stats().misses, exp::expand(sweep).size());
    EXPECT_EQ(opts.store->size(), exp::expand(sweep).size());
  }  // drop the writer lock
  {
    exp::Runner runner;  // fresh process-equivalent: empty in-memory cache
    exp::RunOptions opts;
    opts.store = std::make_shared<ResultStore>(path,
                                               ResultStore::Mode::ReadOnly);
    const std::string second_csv = runner.run(sweep, opts).to_csv();
    EXPECT_EQ(second_csv, first_csv);
    EXPECT_EQ(runner.cache_stats().misses, 0u);
    EXPECT_EQ(runner.cache_stats().disk_hits, exp::expand(sweep).size());
    EXPECT_EQ(runner.cache_stats().memory_hits, 0u);
  }
}

TEST(ResultStoreTest, RunnerWritesThroughAndCountsTiers) {
  const std::string path = fresh_path("tiers");
  const exp::Sweep sweep = tiny_sweep();
  exp::RunOptions opts;
  opts.store = std::make_shared<ResultStore>(path,
                                             ResultStore::Mode::ReadWrite);
  exp::Runner runner;
  runner.run(sweep, opts);
  const std::size_t n = exp::expand(sweep).size();
  // Same runner again: answered from memory, not disk.
  runner.run(sweep, opts);
  const exp::CacheStats s = runner.cache_stats();
  EXPECT_EQ(s.misses, n);
  EXPECT_EQ(s.memory_hits, n);
  EXPECT_EQ(s.disk_hits, 0u);
  EXPECT_EQ(s.hits, s.memory_hits + s.disk_hits);
}

}  // namespace
}  // namespace tb
