// Service-tier throughput comparison: answers the same reference query set
// three ways — cold (every cell solved), warm (repeats answered from the
// in-process cache of the same Service), and store (fresh Services over the
// on-disk result store, so every answer is a disk hit with zero solver
// work) — and verifies the acceptance gate that store-hit qps clears
// 50x cold-solve qps (override with TOPOBENCH_MIN_STORE_SPEEDUP; the
// measured ratio on a quiet machine is orders of magnitude larger and is
// recorded in the JSON either way).
//
// Every store- and memory-answered record is checked byte-identical
// (exp::csv_row) to its cold counterpart — the replay contract of
// store/result_store.h — and each pass's tier accounting is asserted
// exactly (cold all solved, warm all memory, store all disk).
//
// Knobs: TOPOBENCH_EPS (default 0.1), argv[1] the JSON output path,
// argv[2] the scratch store path (default BENCH_server.store, removed at
// start and exit).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "api/topobench.h"
#include "exp/results.h"
#include "exp/shard.h"
#include "util/env.h"
#include "util/timer.h"

namespace {

/// The reference query set: 3 families x 2 sizes x 2 TMs = 12 cells,
/// small enough that the cold pass stays in seconds at eps 0.1.
std::vector<tb::api::Query> reference_queries(double eps) {
  std::vector<tb::api::Query> queries;
  for (const char* family : {"hypercube", "fattree", "jellyfish"}) {
    for (const int servers : {16, 32}) {
      for (const char* tm : {"a2a", "rm(4)"}) {
        tb::api::Query q;
        q.topology = tb::api::build_topology(family, servers, /*seed=*/1);
        q.tm = tb::api::build_tm(tm);
        q.epsilon = eps;
        q.seed = 7;
        queries.push_back(std::move(q));
      }
    }
  }
  return queries;
}

/// Run every query through `service` in order; returns per-query csv rows
/// and counts the answer tiers.
struct PassResult {
  std::vector<std::string> rows;
  std::size_t solved = 0;
  std::size_t memory = 0;
  std::size_t store = 0;
  double seconds = 0.0;
};

PassResult run_pass(tb::api::Service& service,
                    const std::vector<tb::api::Query>& queries) {
  PassResult out;
  tb::Timer timer;
  for (const tb::api::Query& q : queries) {
    const tb::api::QueryResult r = service.query(q);
    out.rows.push_back(tb::exp::csv_row(r.record));
    switch (r.source) {
      case tb::api::Source::Solved:
        ++out.solved;
        break;
      case tb::api::Source::Memory:
        ++out.memory;
        break;
      case tb::api::Source::Store:
        ++out.store;
        break;
    }
  }
  out.seconds = timer.seconds();
  return out;
}

bool rows_match(const char* pass, const std::vector<std::string>& got,
                const std::vector<std::string>& want) {
  bool ok = true;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      ok = false;
      std::fprintf(stderr,
                   "FAIL %s query %zu: bytes differ from cold solve\n  cold: "
                   "%s\n  got:  %s\n",
                   pass, i, want[i].c_str(), got[i].c_str());
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tb;
  // Each pass answers the full query set in one process; a sharded slice
  // would break the tier accounting, so fail loudly instead of mismeasuring.
  if (exp::env_shard()) {
    std::cerr << "server_throughput: TOPOBENCH_SHARD is not supported (the "
                 "cold/warm/store comparison needs the whole query set)\n";
    return 1;
  }
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_server.json";
  const std::string store_path = argc > 2 ? argv[2] : "BENCH_server.store";
  const double eps = exp::eps_knob(0.1);
  const double min_speedup =
      env::double_knob("TOPOBENCH_MIN_STORE_SPEEDUP", 50.0, 0.0,
                       std::numeric_limits<double>::infinity());
  std::remove(store_path.c_str());

  const std::vector<api::Query> queries = reference_queries(eps);
  const std::size_t n = queries.size();

  // Cold: fresh Service, fresh store — every query solved and persisted.
  api::ServiceConfig cfg;
  cfg.store_path = store_path;
  PassResult cold;
  PassResult warm;
  {
    api::Service service(cfg);
    cold = run_pass(service, queries);
    // Warm: same Service — every repeat answered from the in-process cache.
    warm = run_pass(service, queries);
  }  // release the store's writer lock before the store pass

  // Store: fresh read-only Services over the persisted file — empty
  // in-process cache, so every answer is a disk hit. Several rounds so the
  // timed region amortizes Service construction (the store scan).
  constexpr int kStoreRounds = 3;
  api::ServiceConfig ro = cfg;
  ro.store_read_only = true;
  PassResult store;
  Timer store_timer;
  for (int round = 0; round < kStoreRounds; ++round) {
    api::Service service(ro);
    const PassResult pass = run_pass(service, queries);
    store.solved += pass.solved;
    store.memory += pass.memory;
    store.store += pass.store;
    store.rows = pass.rows;
  }
  store.seconds = store_timer.seconds();

  bool ok = true;
  if (cold.solved != n) {
    ok = false;
    std::fprintf(stderr, "FAIL cold pass: %zu/%zu queries solved\n",
                 cold.solved, n);
  }
  if (warm.memory != n) {
    ok = false;
    std::fprintf(stderr, "FAIL warm pass: %zu/%zu queries from memory\n",
                 warm.memory, n);
  }
  if (store.store != kStoreRounds * n) {
    ok = false;
    std::fprintf(stderr, "FAIL store pass: %zu/%zu queries from the store\n",
                 store.store, kStoreRounds * n);
  }
  ok = rows_match("warm", warm.rows, cold.rows) && ok;
  ok = rows_match("store", store.rows, cold.rows) && ok;

  const double cold_qps = cold.seconds > 0.0 ? n / cold.seconds : 0.0;
  const double warm_qps = warm.seconds > 0.0 ? n / warm.seconds : 0.0;
  const double store_qps =
      store.seconds > 0.0 ? kStoreRounds * n / store.seconds : 0.0;
  const double speedup = cold_qps > 0.0 ? store_qps / cold_qps : 0.0;

  std::ofstream json(json_path);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\": \"server_throughput\", \"queries\": %zu, "
                "\"epsilon\": %g, \"cold_seconds\": %.4f, "
                "\"warm_seconds\": %.4f, \"store_seconds\": %.4f, "
                "\"cold_qps\": %.2f, \"warm_qps\": %.2f, "
                "\"store_qps\": %.2f, \"store_speedup\": %.1f, "
                "\"min_store_speedup\": %.1f}\n",
                n, eps, cold.seconds, warm.seconds, store.seconds, cold_qps,
                warm_qps, store_qps, speedup, min_speedup);
  json << buf;
  json.close();
  std::cout << buf;
  std::remove(store_path.c_str());

  if (!ok) {
    std::cerr << "server_throughput: tier accounting or replay bytes wrong\n";
    return 1;
  }
  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "server_throughput: store speedup %.1fx below required "
                 "%.1fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
