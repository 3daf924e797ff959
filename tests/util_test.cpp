#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/env.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace tb {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, MixSeedGoldenValues) {
  // Pinned outputs of the published mixing function. mix_seed positions
  // every cell of a sweep in its seed stream (runner.h) and distributed
  // shards rely on that position stability for byte-identical merges
  // (shard.h) — so these are wire-format constants, not implementation
  // details. If a change here is intentional, every recorded sweep CSV and
  // slice in the wild silently changes value; bump deliberately.
  EXPECT_EQ(mix_seed(0, 0), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(mix_seed(1, 0), 0x4c7924e17855434fULL);
  EXPECT_EQ(mix_seed(0, 1), 0xbeeb8da1658eec67ULL);
  // tiny_sweep's base seed 5 at cell indices 0..2: the cell seeds the
  // `seed` CSV column records.
  EXPECT_EQ(mix_seed(5, 0), 0xc9212166f71eee9cULL);
  EXPECT_EQ(mix_seed(5, 1), 0xe675938c491b9be0ULL);
  EXPECT_EQ(mix_seed(5, 2), 0x2ada12891c4e0eadULL);
  // Three-way (cell, trial) streams: left-associative nesting
  // mix_seed(mix_seed(a, b), c).
  EXPECT_EQ(mix_seed(5, 3, 0), 0xd205f79ba31b5e5aULL);
  EXPECT_EQ(mix_seed(5, 3, 1), 0x421c22b1c19c036fULL);
  EXPECT_EQ(mix_seed(11, 2, 4), 0x6ea070d6646c2a7dULL);
  EXPECT_EQ(mix_seed(5, 3, 0), mix_seed(mix_seed(5, 3), 0));
  // No degenerate fixed point at the extremes.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(mix_seed(max, max), 0x8d63a8fdfcda5d88ULL);
}

TEST(Rng, BoundedIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.next_u64(17), 17u);
  }
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5'000; ++i) seen.insert(rng.next_u64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(17);
  const std::vector<int> p = rng.permutation(50);
  std::set<int> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), 49);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const std::vector<int> s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<int> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (const int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng base(23);
  Rng c1 = base.fork(1);
  Rng c2 = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1() == c2());
  EXPECT_LT(same, 3);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  // t(4) = 2.776; ci = 2.776 * 1.5811 / sqrt(5)
  EXPECT_NEAR(s.ci95, 2.776 * 1.5811 / std::sqrt(5.0), 1e-3);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).n, 0u);
  const std::vector<double> one{7.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  // A single sample has no dispersion estimate — NaN sentinel, not a
  // spuriously exact zero-width interval.
  EXPECT_TRUE(std::isnan(s.ci95));
  EXPECT_TRUE(std::isnan(s.stddev));
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
}

TEST(Stats, TCriticalMonotone) {
  EXPECT_GT(t_critical_95(1), t_critical_95(5));
  EXPECT_GT(t_critical_95(5), t_critical_95(100));
  EXPECT_DOUBLE_EQ(t_critical_95(1000), 1.96);
}

TEST(Table, AlignedTextAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::fmt(1.23456, 3)});
  t.add_row({"b", "2"});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("alpha,1.235"), std::string::npos);
  const std::string txt = t.to_text();
  EXPECT_NE(txt.find("alpha"), std::string::npos);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesCompletion) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesExceptionAfterDrainingChunks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<int> sink(256, 0);
  // Each throwing index has its own message; the lowest one is rethrown no
  // matter which worker fails first in time; index 1 sleeps so that the
  // others throw before it.
  try {
    pool.parallel_for(0, sink.size(), [&](std::size_t i) {
      if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (i % 64 == 1) throw std::runtime_error("boom " + std::to_string(i));
      sink[i] = 1;
      ran.fetch_add(1);
    });
    ADD_FAILURE() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 1");
  }
  EXPECT_GT(ran.load(), 0);
  // Every chunk was drained before the rethrow, so nothing still touches
  // `sink` and the pool stays usable.
  pool.parallel_for(0, sink.size(), [&](std::size_t i) { sink[i] = 2; });
  for (const int v : sink) EXPECT_EQ(v, 2);
}

TEST(ThreadPool, ParallelForKeepsClaimingWhileOneIndexBlocks) {
  // Index 0 blocks until the other 63 finish. Workers claim indices one
  // chunk at a time, so the other workers run 1..63 while 0 waits; a pool
  // that pre-cuts contiguous chunks strands 0's neighbours behind it.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t others = 0;
  bool all_others_ran = false;
  pool.parallel_for(0, 64, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      const auto others_done = [&] { return others == 63; };
      all_others_ran = cv.wait_for(lock, std::chrono::seconds(5), others_done);
    } else if (++others == 63) {
      cv.notify_one();
    }
  });
  EXPECT_TRUE(all_others_ran);
}

TEST(ThreadPool, LateHelpersNeverTouchAFinishedCall) {
  // Two indices, up to two helpers: one helper often runs both and the
  // call returns before the other is dequeued. That late helper must find
  // the range exhausted and leave the (by then reused) stack frame alone.
  ThreadPool pool(4);
  for (int call = 0; call < 20000; ++call) {
    std::array<int, 2> slots{};
    const auto fill = [&slots, call](std::size_t i) { slots[i] = call; };
    pool.parallel_for(0, slots.size(), fill);
    ASSERT_EQ(slots[0], call);
    ASSERT_EQ(slots[1], call);
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorkers) {
  ThreadPool pool(2);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_worker());
    outer.fetch_add(1);
    // Re-entering parallel_for from a worker must not submit (and thus
    // cannot deadlock a saturated pool); it runs the range inline.
    pool.parallel_for(0, 8, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(outer.load(), 4);
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, NestedParallelForAcrossDistinctPoolsRunsInline) {
  // The fleet-inside-runner shape: cells run on the shared pool while the
  // solver targets a dedicated solver pool. in_worker() is pool-agnostic:
  // a worker of pool A re-entering parallel_for on pool B must inline —
  // never submit — or A's workers could block on futures only B's (also
  // saturated, also nested) workers might satisfy. Every index must run
  // exactly once, in order within each outer slot (no reordering).
  ThreadPool outer_pool(2);
  ThreadPool inner_pool(2);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 8;
  std::array<std::array<int, kInner>, kOuter> sequence{};
  outer_pool.parallel_for(0, kOuter, [&](std::size_t i) {
    int next = 0;
    inner_pool.parallel_for(0, kInner, [&](std::size_t j) {
      sequence[i][j] = next++;  // inline => strictly sequential per slot
    });
  });
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(sequence[i][j], static_cast<int>(j)) << i;
    }
  }
}

TEST(ThreadPool, ResolveMapsThreadCountsToPools) {
  // The one intra-solve threading rule: 1 = serial (null), 0 or less =
  // the shared pool, N > 1 = the process-shared dedicated N-worker pool.
  EXPECT_EQ(ThreadPool::resolve(1), nullptr);
  EXPECT_EQ(ThreadPool::resolve(0), &ThreadPool::shared());
  EXPECT_EQ(ThreadPool::resolve(-3), &ThreadPool::shared());
  ThreadPool* const two = ThreadPool::resolve(2);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two, &ThreadPool::dedicated(2));
  EXPECT_EQ(two->size(), 2u);
  EXPECT_EQ(ThreadPool::resolve(2), two);  // reused, never respawned
  // From a pool worker a nested parallel_for inlines, so N > 1 resolves to
  // the shared pool instead of a dedicated pool whose threads would idle;
  // 1 stays serial there too.
  ThreadPool outer(2);
  ThreadPool* nested = nullptr;
  ThreadPool* nested_serial = two;
  outer
      .submit([&] {
        nested = ThreadPool::resolve(3);
        nested_serial = ThreadPool::resolve(1);
      })
      .get();
  EXPECT_EQ(nested, &ThreadPool::shared());
  EXPECT_EQ(nested_serial, nullptr);
}


TEST(EnvKnobs, IntKnobParsesClampsAndRejects) {
  ::unsetenv("TOPOBENCH_TEST_KNOB");
  EXPECT_EQ(env::int_knob("TOPOBENCH_TEST_KNOB", 7, 0, 512), 7);
  ::setenv("TOPOBENCH_TEST_KNOB", "12", 1);
  EXPECT_EQ(env::int_knob("TOPOBENCH_TEST_KNOB", 7, 0, 512), 12);
  for (const char* bad : {"", " ", "abc", "3x", "1.5", "-1", "513"}) {
    ::setenv("TOPOBENCH_TEST_KNOB", bad, 1);
    EXPECT_THROW(env::int_knob("TOPOBENCH_TEST_KNOB", 7, 0, 512),
                 std::invalid_argument)
        << '"' << bad << '"';
  }
  ::unsetenv("TOPOBENCH_TEST_KNOB");
}

TEST(EnvKnobs, DoubleKnobParsesAndRejects) {
  ::unsetenv("TOPOBENCH_TEST_KNOB");
  EXPECT_EQ(env::double_knob("TOPOBENCH_TEST_KNOB", 0.25, 0.0, 0.5), 0.25);
  ::setenv("TOPOBENCH_TEST_KNOB", "0.1", 1);
  EXPECT_EQ(env::double_knob("TOPOBENCH_TEST_KNOB", 0.25, 0.0, 0.5), 0.1);
  ::setenv("TOPOBENCH_TEST_KNOB", "1e-3", 1);
  EXPECT_EQ(env::double_knob("TOPOBENCH_TEST_KNOB", 0.25, 0.0, 0.5), 1e-3);
  // Below, at and above the open range (0, 0.5), plus malformed text.
  for (const char* bad : {"", "abc", "0.1x", "1,5", "nan", "inf", "-0.1",
                          "0", "0.5", "0.7"}) {
    ::setenv("TOPOBENCH_TEST_KNOB", bad, 1);
    try {
      (void)env::double_knob("TOPOBENCH_TEST_KNOB", 0.25, 0.0, 0.5);
      ADD_FAILURE() << '"' << bad << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("TOPOBENCH_TEST_KNOB"),
                std::string::npos)
          << e.what();
    }
  }
  // An infinite upper end leaves only "finite and above lo".
  const double inf = std::numeric_limits<double>::infinity();
  ::setenv("TOPOBENCH_TEST_KNOB", "1e6", 1);
  EXPECT_EQ(env::double_knob("TOPOBENCH_TEST_KNOB", 1.5, 0.0, inf), 1e6);
  ::setenv("TOPOBENCH_TEST_KNOB", "inf", 1);
  EXPECT_THROW(env::double_knob("TOPOBENCH_TEST_KNOB", 1.5, 0.0, inf),
               std::invalid_argument);
  ::unsetenv("TOPOBENCH_TEST_KNOB");
}

TEST(EnvKnobs, FlagKnobIsStrictZeroOne) {
  ::unsetenv("TOPOBENCH_TEST_FLAG");
  EXPECT_FALSE(env::flag_knob("TOPOBENCH_TEST_FLAG", false));
  EXPECT_TRUE(env::flag_knob("TOPOBENCH_TEST_FLAG", true));
  ::setenv("TOPOBENCH_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env::flag_knob("TOPOBENCH_TEST_FLAG", false));
  ::setenv("TOPOBENCH_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env::flag_knob("TOPOBENCH_TEST_FLAG", true));
  for (const char* bad : {"", "true", "yes", "2"}) {
    ::setenv("TOPOBENCH_TEST_FLAG", bad, 1);
    EXPECT_THROW(env::flag_knob("TOPOBENCH_TEST_FLAG", false),
                 std::invalid_argument)
        << '"' << bad << '"';
  }
  ::unsetenv("TOPOBENCH_TEST_FLAG");
}

TEST(Json, ParsesScalarsArraysAndOrderedObjects) {
  const json::Value v = json::parse(
      R"({"b": 1, "a": [true, null, "x\u00e9", -2.5], "b2": {"n": 3}})");
  ASSERT_EQ(v.kind, json::Kind::Object);
  EXPECT_EQ(v.members[0].first, "b");   // document order preserved
  EXPECT_EQ(v.members[1].first, "a");
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 4u);
  EXPECT_TRUE(a->items[0].as_bool("x"));
  EXPECT_EQ(a->items[1].kind, json::Kind::Null);
  EXPECT_EQ(a->items[2].as_string("x"), "x\xc3\xa9");
  EXPECT_EQ(a->items[3].as_number("x"), -2.5);
  EXPECT_EQ(v.find("b2")->find("n")->as_int("n", 0, 10), 3);
}

TEST(Json, DumpIsDeterministicAndRoundTrips) {
  json::Value o = json::Value::object();
  o.set("z", json::Value::number_v(0.1));
  o.set("a", json::Value::string_v("tab\there \"quote\""));
  json::Value arr = json::Value::array();
  arr.items.push_back(json::Value::boolean_v(false));
  arr.items.push_back(json::Value::null());
  o.set("list", std::move(arr));
  const std::string text = json::dump(o);
  EXPECT_EQ(text,
            "{\"z\": 0.10000000000000001, "
            "\"a\": \"tab\\there \\\"quote\\\"\", "
            "\"list\": [false, null]}");
  EXPECT_EQ(json::dump(json::parse(text)), text);  // insertion order kept
}

TEST(Json, RejectsMalformedDocumentsLoudly) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "01", "1 2", "\"unterminated",
        "nul", "{\"a\": }", "[1, 2"}) {
    EXPECT_THROW(json::parse(bad), std::invalid_argument) << '"' << bad << '"';
  }
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(json::parse(deep), std::invalid_argument);
}

TEST(Json, CheckedAccessorsNameTheField) {
  const json::Value v = json::parse(R"({"n": 1.5})");
  EXPECT_THROW(v.find("n")->as_string("n"), std::invalid_argument);
  EXPECT_THROW(v.find("n")->as_int("n", 0, 10), std::invalid_argument);
  EXPECT_EQ(v.find("n")->as_number("n"), 1.5);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(0, 10, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.size(), 10u);
}

}  // namespace
}  // namespace tb
