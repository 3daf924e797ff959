// The serve workload: one closed-loop client of the real topobench_server
// binary over a pipe. A cycle is
//   phase A: a server on a fresh store answers 1600 query requests, each
//            sent only after the previous reply (48 solves + puts, the rest
//            memory hits);
//   phase B: a fresh --read-only server on the same store answers 800
//            more (first-seen keys from disk, then memory).
// Requests are a seeded Zipf(1.1) stream over 48 cells: hypercube, fattree,
// jellyfish, dragonfly x 16/32 servers x a2a/rm(4)/lm x {none,
// fail(f=0.05)}, eps 0.1. Cycles repeat until --seconds have passed.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/topobench.h"
#include "exp/runner.h"
#include "perf.h"
#include "store/result_store.h"
#include "util/json.h"
#include "util/rng.h"

extern char** environ;

namespace perf {
namespace {

using tb::json::Value;

constexpr double kEps = 0.1;
constexpr int kPhaseA = 1600;
constexpr int kPhaseB = 800;
constexpr double kZipf = 1.1;
constexpr const char* kFamilies[] = {"hypercube", "fattree", "jellyfish",
                                     "dragonfly"};
constexpr int kServers[] = {16, 32};
constexpr const char* kTms[] = {"a2a", "rm(4)", "lm"};
constexpr const char* kScenarios[] = {"", "fail(f=0.05)"};

struct CellSpec {
  std::string family;
  int servers = 0;
  std::string tm;
  std::string scenario;  ///< empty: intact network
};

std::vector<CellSpec> cells() {
  std::vector<CellSpec> out;
  for (const char* f : kFamilies) {
    for (const int s : kServers) {
      for (const char* tm : kTms) {
        for (const char* sc : kScenarios) out.push_back({f, s, tm, sc});
      }
    }
  }
  return out;
}

struct Request {
  std::size_t cell = 0;
  long id = 0;
  std::string line;
};

struct Stream {
  std::uint64_t query_seed = 0;  ///< the "seed" field of every request
  std::vector<Request> a;
  std::vector<Request> b;
};

/// The query object for `c`, without its "id" member.
Value query_value(const CellSpec& c, std::uint64_t query_seed) {
  Value topo = Value::object();
  topo.set("family", Value::string_v(c.family));
  topo.set("servers", Value::number_v(c.servers));
  topo.set("seed", Value::number_v(1));
  Value v = Value::object();
  v.set("op", Value::string_v("query"));
  v.set("topology", std::move(topo));
  v.set("tm", Value::string_v(c.tm));
  v.set("epsilon", Value::number_v(kEps));
  v.set("seed", Value::number_v(static_cast<double>(query_seed)));
  if (!c.scenario.empty()) v.set("scenario", Value::string_v(c.scenario));
  return v;
}

/// Cycle c's stream: ranks drawn from Zipf(1.1) and mapped to cells through
/// a seeded permutation. Phase A holds every cell once plus 1552 draws,
/// shuffled, so it solves exactly 48 cells; phase B is 800 plain draws.
/// The 48 solves are 2% of the 2400 requests, which puts op_p99_ms near
/// the median solve latency rather than on the steep low tail of solves.
Stream make_stream(const std::vector<CellSpec>& catalogue, std::uint64_t seed,
                   std::uint64_t cycle) {
  const std::uint64_t stream_seed = tb::mix_seed(seed, cycle);
  tb::Rng rng(stream_seed);
  Stream s;
  // The server accepts seeds in [0, 1e9].
  s.query_seed = tb::mix_seed(stream_seed, 1) % 1000000000ULL;
  const int n = static_cast<int>(catalogue.size());
  const std::vector<int> rank_to_cell = rng.permutation(n);
  std::vector<double> cdf;
  double total = 0.0;
  for (int r = 1; r <= n; ++r) {
    total += std::pow(static_cast<double>(r), -kZipf);
    cdf.push_back(total);
  }
  const auto draw = [&] {
    const double u = rng.next_double() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    const auto rank = std::min<std::ptrdiff_t>(it - cdf.begin(), n - 1);
    return static_cast<std::size_t>(
        rank_to_cell[static_cast<std::size_t>(rank)]);
  };
  std::vector<std::size_t> a;
  for (int c = 0; c < n; ++c) a.push_back(static_cast<std::size_t>(c));
  while (static_cast<int>(a.size()) < kPhaseA) a.push_back(draw());
  rng.shuffle(a);
  // Each cell's line up to its "id", which is the last member.
  std::vector<std::string> prefix;
  for (const CellSpec& c : catalogue) {
    prefix.push_back(tb::json::dump(query_value(c, s.query_seed)));
    prefix.back().pop_back();
    prefix.back() += ", \"id\": ";  // json::dump's separators
  }
  long id = 0;
  const auto request = [&](std::size_t cell) {
    Request r{cell, id, prefix[cell] + std::to_string(id) + "}"};
    ++id;
    return r;
  };
  for (const std::size_t c : a) s.a.push_back(request(c));
  for (int i = 0; i < kPhaseB; ++i) s.b.push_back(request(draw()));
  return s;
}

/// A topobench_server child speaking line-delimited JSON over two pipes.
class ServerProcess {
 public:
  ServerProcess(const std::string& store, bool read_only) {
    int in[2];
    int out[2];
    if (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    std::vector<std::string> args = {PERF_SERVER_BIN, "--store", store};
    if (read_only) args.emplace_back("--read-only");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, PERF_SERVER_BIN, &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(in[0]);
    ::close(out[1]);
    to_ = in[1];
    from_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error(std::string("spawn ") + PERF_SERVER_BIN + ": " +
                               std::strerror(rc));
    }
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      finish_wait();
    }
    if (to_ >= 0) ::close(to_);
    if (from_ >= 0) ::close(from_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Send one request line and return the reply line.
  std::string ask(const std::string& line) {
    std::string msg = line;
    msg += '\n';
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t w = ::write(to_, msg.data() + off, msg.size() - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("server write failed");
      }
      off += static_cast<std::size_t>(w);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t r = ::read(from_, chunk, sizeof(chunk));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw std::runtime_error("server closed its output");
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
  }

  pid_t pid() const noexcept { return pid_; }

  /// Shut the server down and return its exit status.
  int shutdown() {
    ask(R"({"op":"shutdown"})");
    ::close(to_);
    to_ = -1;
    return finish_wait();
  }

 private:
  int finish_wait() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::string buf_;
};

struct Phase {
  std::vector<std::string> replies;
  std::vector<double> latency;  ///< seconds, send to reply
  int exit_status = 0;
};

Phase run_phase(ServerProcess& server, const std::vector<Request>& reqs) {
  Phase p;
  p.replies.reserve(reqs.size());
  p.latency.reserve(reqs.size());
  for (const Request& r : reqs) {
    const tb::Timer t;
    p.replies.push_back(server.ask(r.line));
    p.latency.push_back(t.seconds());
  }
  return p;
}

/// One full cycle against the real server. `setup` is the set-up time:
/// the stream, both server spawns and their hello handshakes; `rss_mb` the
/// larger peak resident set of the two servers.
struct Cycle {
  Stream stream;
  Phase a;
  Phase b;
  double setup = 0.0;
  double rss_mb = 0.0;
};

/// Tier counts of one phase, from the replies' "source" field.
struct Sources {
  long solved = 0;
  long memory = 0;
  long store = 0;
};

/// What the checks of one cycle read from its replies.
struct CycleCheck {
  long failed = 0;  ///< requests with a bad reply or a differing record
  Sources a;
  Sources b;
  std::vector<double> thr_a;  ///< per-request throughput, phase A
  std::vector<double> thr_b;
};

/// The serve checks of one cycle: every reply ok with its request's id;
/// phase A solved exactly the 48 cells and phase B none; every record of a
/// key is byte-identical to the first solve of that key.
CycleCheck check_cycle(const Cycle& c, Report& report) {
  CycleCheck out;
  std::map<std::size_t, std::string> first;  // cell -> first record bytes
  const auto check = [&](const Request& req, const std::string& line,
                         Sources& src, std::vector<double>& thr) {
    bool ok = true;
    double throughput = std::nan("");
    try {
      const Value reply = tb::json::parse(line);
      const Value* okv = reply.find("ok");
      const Value* id = reply.find("id");
      const Value* source = reply.find("source");
      const Value* result = reply.find("result");
      ok = okv != nullptr && okv->as_bool("ok") && id != nullptr &&
           id->as_number("id") == static_cast<double>(req.id) &&
           source != nullptr && result != nullptr;
      if (ok) {
        const std::string& from = source->as_string("source");
        if (from == "solved") ++src.solved;
        if (from == "memory") ++src.memory;
        if (from == "store") ++src.store;
        throughput = result->find("throughput")->as_number("throughput");
        const std::string bytes = tb::json::dump(*result);
        const auto [it, fresh] = first.emplace(req.cell, bytes);
        ok = report.expect(fresh || it->second == bytes,
                           "serve request " + req.line +
                               ": record differs from the first solve");
        ok &= report.expect(std::isfinite(throughput) && throughput >= 0.0,
                            "serve request " + req.line +
                                ": throughput not finite");
      }
    } catch (const std::exception&) {
      ok = false;
    }
    report.expect(ok, "serve request " + req.line + ": bad reply " + line);
    thr.push_back(throughput);
    if (!ok) ++out.failed;
  };
  for (std::size_t i = 0; i < c.stream.a.size(); ++i) {
    check(c.stream.a[i], c.a.replies[i], out.a, out.thr_a);
  }
  for (std::size_t i = 0; i < c.stream.b.size(); ++i) {
    check(c.stream.b[i], c.b.replies[i], out.b, out.thr_b);
  }
  report.expect(out.a.solved == static_cast<long>(cells().size()),
                "serve phase A solved " + std::to_string(out.a.solved) +
                    " cells, expected 48");
  report.expect(out.b.solved == 0, "serve phase B solved " +
                                        std::to_string(out.b.solved) +
                                        " cells, expected 0");
  report.expect(c.a.exit_status == 0 && c.b.exit_status == 0,
                "serve: a server exited non-zero");
  return out;
}

std::string store_path(const Options& opts, const std::string& what) {
  std::filesystem::create_directories(opts.work_dir);
  return opts.work_dir + "/serve-" + std::to_string(::getpid()) + "-" + what +
         ".store";
}

Cycle run_cycle(const Options& opts, const std::vector<CellSpec>& catalogue,
                std::uint64_t cycle) {
  const std::string path = store_path(opts, std::to_string(cycle));
  std::filesystem::remove(path);
  Cycle c;
  tb::Timer setup;  // reset between the two spawns
  c.stream = make_stream(catalogue, opts.seed, cycle);
  {
    ServerProcess server(path, /*read_only=*/false);
    server.ask(R"({"op":"hello"})");
    c.setup += setup.seconds();
    c.a = run_phase(server, c.stream.a);
    c.rss_mb = peak_rss_mb(std::to_string(server.pid()));
    c.a.exit_status = server.shutdown();
  }
  setup.reset();
  {
    ServerProcess server(path, /*read_only=*/true);
    server.ask(R"({"op":"hello"})");
    c.setup += setup.seconds();
    c.b = run_phase(server, c.stream.b);
    c.rss_mb = std::max(c.rss_mb, peak_rss_mb(std::to_string(server.pid())));
    c.b.exit_status = server.shutdown();
  }
  std::filesystem::remove(path);
  return c;
}

void run_untraced(const Options& opts, Report& report) {
  const std::vector<CellSpec> catalogue = cells();
  std::vector<double> setup;
  std::vector<double> latency;
  std::vector<double> rate;
  double rss_mb = 0.0;
  std::uint64_t cycle = 0;
  const tb::Timer wall;
  do {
    const Cycle c = run_cycle(opts, catalogue, cycle);
    setup.push_back(c.setup);
    rss_mb = std::max(rss_mb, c.rss_mb);
    double busy = 0.0;
    for (const Phase* p : {&c.a, &c.b}) {
      for (const double l : p->latency) {
        latency.push_back(l);
        busy += l;
      }
    }
    const std::size_t requests = c.a.latency.size() + c.b.latency.size();
    rate.push_back(static_cast<double>(requests) / busy);
    report.attempted += static_cast<long>(requests);
    report.failed += check_cycle(c, report).failed;
    ++cycle;
  } while (wall.seconds() < opts.seconds);
  end_to_end(report, setup, rate, latency, rss_mb);
  report.note("cycles " + std::to_string(cycle) + " requests " +
              std::to_string(latency.size()));
}

// --- traced walk -------------------------------------------------------------

/// The store key the server's Runner uses for a query (the api builds a
/// one-cell sweep with the query's fields; see api/topobench.cpp).
std::string store_key(const CellSpec& c, std::uint64_t query_seed) {
  tb::exp::Sweep sweep;
  sweep.topologies = {tb::api::build_topology(c.family, c.servers, 1)};
  sweep.tms = {tb::api::build_tm(c.tm)};
  sweep.solve.epsilon = kEps;
  if (!c.scenario.empty()) {
    sweep.scenarios = {tb::api::build_scenario(c.scenario)};
  }
  sweep.base_seed = query_seed;
  return tb::exp::cell_result_key(sweep, tb::exp::Cell{});
}

/// Solve one cell as the server's Runner does (one-cell sweep, so cell
/// index 0), every layer under its own span; returns the record to store.
tb::exp::CellResult walk_solve(Tracer& tracer, WalkCounters& wc,
                               const CellSpec& c, std::uint64_t query_seed) {
  tb::mcf::SolveOptions so;
  so.epsilon = kEps;
  so.solver_threads = 1;
  const tb::api::Topology topo =
      tb::api::build_topology(c.family, c.servers, 1);
  std::shared_ptr<const tb::Network> net;
  {
    const Scope s(tracer, "topo.build");
    net = topo.build();
  }
  const tb::api::Traffic spec = tb::api::build_tm(c.tm);
  const std::uint64_t cell_seed = tb::mix_seed(query_seed, 0);
  const tb::TrafficMatrix tm =
      traced_tm(tracer, spec, *net, tb::mix_seed(cell_seed, 0));
  tb::exp::CellResult r;
  r.topology = topo.label;
  r.servers = net->total_servers();
  r.switches = net->graph.num_nodes();
  r.tm = spec.label;
  r.seed = cell_seed;
  r.solver = tb::exp::solver_label(so);
  const auto engine = traced_engine(tracer, *net);
  const tb::mcf::ThroughputResult base =
      traced_solve(tracer, wc, *engine, tm, so, false);
  r.throughput = base.throughput;
  if (!c.scenario.empty()) {
    tb::mcf::ScenarioSpec sc = tb::api::build_scenario(c.scenario).spec;
    sc.seed = tb::mix_seed(cell_seed, 2);  // Runner: stream trials + 2
    std::unique_ptr<tb::mcf::ThroughputEngine> worker;
    {
      const Scope s(tracer, "mcf.scenario_apply");
      worker = engine->fork_session();
      worker->apply_scenario(sc);
    }
    r.throughput = traced_solve(tracer, wc, *worker, tm, so, true).throughput;
    r.scenario = c.scenario;
    r.failed_links = worker->failed_edge_count();
    r.throughput_drop =
        base.throughput > 0.0 ? 1.0 - r.throughput / base.throughput : 0.0;
    {
      const Scope s(tracer, "mcf.scenario_clear");
      worker->clear_scenario();
    }
  }
  return r;
}

void run_traced(const Options& opts, Report& report) {
  const std::vector<CellSpec> catalogue = cells();
  // The real server, untraced: the reference replies and tier counts.
  const Cycle real = run_cycle(opts, catalogue, 0);
  const CycleCheck checked = check_cycle(real, report);
  report.failed += checked.failed;

  WalkCounters wc;
  wc.api_solved = checked.a.solved + checked.b.solved;
  wc.api_memory = checked.a.memory + checked.b.memory;
  wc.api_disk = checked.a.store + checked.b.store;
  for (const Phase* p : {&real.a, &real.b}) {
    for (const double l : p->latency) wc.untraced_wall_s += l;
  }

  const std::string path = store_path(opts, "walk");
  std::filesystem::remove(path);
  Tracer tracer;
  const int root = tracer.open("trace.walk", {});
  const auto request_json = [&](const Request& req, const std::string& reply) {
    {
      const Scope s(tracer, "json.print");
      Value v = query_value(catalogue[req.cell], real.stream.query_seed);
      v.set("id", Value::number_v(static_cast<double>(req.id)));
      if (tb::json::dump(v) != req.line) {
        throw std::logic_error("request line differs from its JSON value");
      }
    }
    const Scope s(tracer, "json.parse");
    tb::json::parse(req.line);
    tb::json::parse(reply);
  };
  const auto tags = [&](const std::string& id, const Request& req) {
    const CellSpec& c = catalogue[req.cell];
    return Tags{id, c.family + "(" + std::to_string(c.servers) + ")", c.tm,
                c.scenario};
  };
  long mismatches = 0;
  {
    std::unique_ptr<tb::store::ResultStore> store;
    {
      const Scope s(tracer, "store.open");
      store = std::make_unique<tb::store::ResultStore>(
          path, tb::store::ResultStore::Mode::ReadWrite);
    }
    std::map<std::size_t, double> memory;  // the server's in-process tier
    for (std::size_t i = 0; i < real.stream.a.size(); ++i) {
      const Request& req = real.stream.a[i];
      const Scope op(tracer, "exp.request", tags(op_id('a', i), req));
      request_json(req, real.a.replies[i]);
      auto it = memory.find(req.cell);
      if (it == memory.end()) {
        const CellSpec& c = catalogue[req.cell];
        const std::string key = store_key(c, real.stream.query_seed);
        {
          const Scope s(tracer, "store.get");
          if (store->get(key)) throw std::logic_error("fresh store hit");
        }
        ++wc.store_gets;
        const tb::exp::CellResult r =
            walk_solve(tracer, wc, c, real.stream.query_seed);
        {
          const Scope s(tracer, "store.put");
          store->put(key, r);
        }
        ++wc.store_puts;
        it = memory.emplace(req.cell, r.throughput).first;
      }
      if (!same_bits(it->second, checked.thr_a[i])) ++mismatches;
      ++wc.ops;
    }
  }
  wc.store_bytes = static_cast<double>(std::filesystem::file_size(path));
  {
    std::unique_ptr<tb::store::ResultStore> store;
    {
      const Scope s(tracer, "store.open");
      store = std::make_unique<tb::store::ResultStore>(
          path, tb::store::ResultStore::Mode::ReadOnly);
    }
    std::map<std::size_t, double> memory;
    for (std::size_t i = 0; i < real.stream.b.size(); ++i) {
      const Request& req = real.stream.b[i];
      const Scope op(tracer, "exp.request", tags(op_id('b', i), req));
      request_json(req, real.b.replies[i]);
      auto it = memory.find(req.cell);
      if (it == memory.end()) {
        const std::string key =
            store_key(catalogue[req.cell], real.stream.query_seed);
        std::optional<tb::exp::CellResult> hit;
        {
          const Scope s(tracer, "store.get");
          hit = store->get(key);
        }
        ++wc.store_gets;
        ++wc.store_probes;
        if (hit) ++wc.store_hits;
        it = memory.emplace(req.cell, hit ? hit->throughput : std::nan(""))
                 .first;
      }
      if (!same_bits(it->second, checked.thr_b[i])) ++mismatches;
      ++wc.ops;
    }
  }
  tracer.close(root);
  std::filesystem::remove(path);

  report.attempted = wc.ops;
  report.failed += mismatches;
  report.expect(mismatches == 0, "serve: " + std::to_string(mismatches) +
                                     " walked answers differ from the server");
  report.expect(wc.store_hits == wc.store_probes,
                "serve: phase-B keys missing from the store");
  finish_trace(tracer, root, wc, opts, report);
}

}  // namespace

void run_serve(const Options& opts, Report& report) {
  if (opts.trace) {
    run_traced(opts, report);
  } else {
    run_untraced(opts, report);
  }
}

}  // namespace perf
