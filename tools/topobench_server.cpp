// topobench_server: long-running throughput-query daemon.
//
// Speaks a versioned line-delimited JSON protocol (version 1) over
// stdin/stdout: one request object per line, one response object per line,
// answered strictly in arrival order. Each batch still fans out across the
// shared thread pool inside the engine, and repeat queries are answered
// from the in-process cache or the on-disk result store in O(lookup)
// (see src/store/result_store.h and docs/ARCHITECTURE.md for the wire and
// store formats).
//
// Requests ("id" is optional and echoed back verbatim):
//   {"op": "hello"}                               protocol/version handshake
//   {"op": "query", "topology": {"family": "hypercube", "servers": 16,
//        "seed": 1}, "tm": "a2a", "solver": "auto", "epsilon": 0.03,
//        "trials": 0, "cut_bounds": false, "scenario": "fail(f=0.1)",
//        "seed": 1}                               one cell; epsilon in
//                                                 [0.0001, 0.3]
//   {"op": "sweep", "topologies": [<topology>...], "tms": ["a2a", ...],
//        "scenarios": ["degrade(c=0.9)", ...], ...}  a grid, one batch
//   {"op": "stats"}                               cumulative tier counters
//   {"op": "shutdown"}                            acknowledge and exit
//
// Request members an op does not read are ignored — e.g. "warm_start" on
// a sweep: every sweep cell is a cold solve.
//
// Responses: {"ok": true, ...} with deterministic key order and %.17g
// numbers — replaying a request script yields byte-identical transcripts
// (the `source` field is the one execution-dependent value: solved /
// memory / store). Failures are in-band {"ok": false, "error": ...}; the
// daemon keeps serving.
//
// Exit status: 0 on clean shutdown (EOF or shutdown op) with every request
// answered ok, 1 when any request failed, 2 on usage or environment
// errors (unknown option, store open failure).
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "api/topobench.h"
#include "exp/results.h"
#include "store/result_store.h"
#include "util/json.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRequestErrors = 1;
constexpr int kExitUsage = 2;

constexpr const char* kServerVersion = "1.0.0";

using tb::json::Value;

void print_usage(std::ostream& os) {
  os << "usage: topobench_server [options]\n"
        "\n"
        "Serves throughput queries over a line-delimited JSON protocol\n"
        "(version 1) on stdin/stdout; see docs/ARCHITECTURE.md. Repeat\n"
        "queries are answered from the on-disk result store when one is\n"
        "attached.\n"
        "\n"
        "options:\n"
        "  -h, --help       print this help and exit\n"
        "  --version        print the version and exit\n"
        "  --store PATH     attach the result store at PATH (overrides\n"
        "                   TOPOBENCH_STORE; created if absent)\n"
        "  --read-only      open the store read-only (overrides\n"
        "                   TOPOBENCH_STORE_RO)\n"
        "\n"
        "exit status: 0 clean shutdown, 1 when any request failed,\n"
        "2 usage/environment error\n";
}

tb::api::Solver parse_solver(const std::string& name) {
  if (name == "auto") return tb::api::Solver::Auto;
  if (name == "exact-lp") return tb::api::Solver::ExactLP;
  if (name == "gk") return tb::api::Solver::GargKonemann;
  throw std::invalid_argument("solver must be one of auto, exact-lp, gk");
}

tb::api::Topology parse_topology(const Value& v) {
  const Value* family = v.find("family");
  if (family == nullptr) {
    throw std::invalid_argument(
        "topology must be {\"family\": ..., \"servers\": ...}");
  }
  const Value* servers = v.find("servers");
  if (servers == nullptr) {
    throw std::invalid_argument("topology needs a \"servers\" field");
  }
  const Value* seed_field = v.find("seed");
  return tb::api::build_topology(
      family->as_string("topology.family"),
      static_cast<int>(servers->as_int("topology.servers", 1, 1000000)),
      seed_field != nullptr
          ? static_cast<std::uint64_t>(seed_field->as_int("topology.seed", 0,
                                                    1000000000L))
          : 1);
}

/// The optional fields a query and a sweep share (solver, epsilon, trials,
/// cut_bounds, seed), decoded into `q` with one set of checks.
template <class Q>
void parse_solve_fields(const Value& req, Q& q) {
  if (const Value* solver = req.find("solver")) {
    q.solver = parse_solver(solver->as_string("solver"));
  }
  if (const Value* eps = req.find("epsilon")) {
    const double e = eps->as_number("epsilon");
    tb::mcf::check_epsilon(e, "epsilon");
    q.epsilon = e;
  }
  if (const Value* trials = req.find("trials")) {
    q.trials = static_cast<int>(trials->as_int("trials", 0, 100));
  }
  if (const Value* cb = req.find("cut_bounds")) {
    q.cut_bounds = cb->as_bool("cut_bounds");
  }
  if (const Value* seed_field = req.find("seed")) {
    q.seed = static_cast<std::uint64_t>(
        seed_field->as_int("seed", 0, 1000000000L));
  }
}

class Server {
 public:
  explicit Server(tb::api::ServiceConfig cfg) : service_(std::move(cfg)) {}

  /// Serve until EOF or a shutdown request; returns the exit status.
  int serve(std::istream& in, std::ostream& out) {
    std::string line;
    bool any_failed = false;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      bool shutdown = false;
      const Value response = handle_line(line, shutdown, any_failed);
      out << tb::json::dump(response) << '\n' << std::flush;
      if (shutdown) break;
    }
    return any_failed ? kExitRequestErrors : kExitOk;
  }

 private:
  Value handle_line(const std::string& line, bool& shutdown,
                    bool& any_failed) {
    Value id = Value::null();
    bool have_id = false;
    try {
      const Value req = tb::json::parse(line);
      if (const Value* rid = req.find("id")) {
        id = *rid;
        have_id = true;
      }
      const Value* op = req.find("op");
      if (op == nullptr) throw std::invalid_argument("request needs an \"op\"");
      const std::string& name = op->as_string("op");
      Value resp = Value::object();
      resp.set("ok", Value::boolean_v(true));
      if (have_id) resp.set("id", id);
      resp.set("op", Value::string_v(name));
      if (name == "hello") {
        handle_hello(resp);
      } else if (name == "query") {
        handle_query(req, resp);
      } else if (name == "sweep") {
        handle_sweep(req, resp);
      } else if (name == "stats") {
        handle_stats(resp);
      } else if (name == "shutdown") {
        shutdown = true;
      } else {
        throw std::invalid_argument("unknown op \"" + name + "\"");
      }
      return resp;
    } catch (const std::exception& e) {
      any_failed = true;
      Value resp = Value::object();
      resp.set("ok", Value::boolean_v(false));
      if (have_id) resp.set("id", id);
      resp.set("error", Value::string_v(e.what()));
      return resp;
    }
  }

  void handle_hello(Value& resp) {
    const tb::api::ServiceConfig& cfg = service_.config();
    resp.set("server", Value::string_v("topobench_server"));
    resp.set("version", Value::string_v(kServerVersion));
    resp.set("protocol", Value::number_v(tb::api::kProtocolVersion));
    resp.set("api_version", Value::string_v(tb::api::kApiVersion));
    resp.set("store_format", Value::number_v(tb::store::kStoreFormatVersion));
    resp.set("store", cfg.store_path.empty()
                          ? Value::null()
                          : Value::string_v(cfg.store_path));
    resp.set("store_read_only", Value::boolean_v(cfg.store_read_only));
    resp.set("store_entries",
             Value::number_v(static_cast<double>(service_.stats().store_entries)));
  }

  tb::api::Query parse_query(const Value& req) {
    tb::api::Query q;
    const Value* topology = req.find("topology");
    if (topology == nullptr) {
      throw std::invalid_argument("query needs a \"topology\"");
    }
    q.topology = parse_topology(*topology);
    const Value* tm = req.find("tm");
    if (tm == nullptr) throw std::invalid_argument("query needs a \"tm\"");
    q.tm = tb::api::build_tm(tm->as_string("tm"));
    parse_solve_fields(req, q);
    if (const Value* scenario = req.find("scenario")) {
      q.scenario = tb::api::build_scenario(scenario->as_string("scenario"));
    }
    return q;
  }

  void handle_query(const Value& req, Value& resp) {
    const tb::api::QueryResult r = service_.query(parse_query(req));
    resp.set("source", Value::string_v(tb::api::to_string(r.source)));
    resp.set("result", tb::exp::cell_json(r.record));
  }

  void handle_sweep(const Value& req, Value& resp) {
    tb::api::SweepQuery q;
    const Value* topologies = req.find("topologies");
    if (topologies == nullptr || topologies->kind != tb::json::Kind::Array ||
        topologies->items.empty()) {
      throw std::invalid_argument(
          "sweep needs a non-empty \"topologies\" array");
    }
    for (const Value& t : topologies->items) {
      q.topologies.push_back(parse_topology(t));
    }
    const Value* tms = req.find("tms");
    if (tms == nullptr || tms->kind != tb::json::Kind::Array ||
        tms->items.empty()) {
      throw std::invalid_argument("sweep needs a non-empty \"tms\" array");
    }
    for (const Value& t : tms->items) {
      q.tms.push_back(tb::api::build_tm(t.as_string("tms[]")));
    }
    parse_solve_fields(req, q);
    if (const Value* scenarios = req.find("scenarios")) {
      if (scenarios->kind != tb::json::Kind::Array) {
        throw std::invalid_argument("\"scenarios\" must be an array");
      }
      for (const Value& s : scenarios->items) {
        q.scenarios.push_back(
            tb::api::build_scenario(s.as_string("scenarios[]")));
      }
    }
    const tb::api::SweepResult r = service_.sweep(q);
    resp.set("cells", Value::number_v(static_cast<double>(r.results.size())));
    resp.set("memory_hits",
             Value::number_v(static_cast<double>(r.stats.memory_hits)));
    resp.set("disk_hits",
             Value::number_v(static_cast<double>(r.stats.disk_hits)));
    resp.set("solved", Value::number_v(static_cast<double>(r.stats.solved)));
    Value rows = Value::array();
    for (const tb::api::Result& rec : r.results.rows()) {
      rows.items.push_back(tb::exp::cell_json(rec));
    }
    resp.set("results", std::move(rows));
  }

  void handle_stats(Value& resp) {
    const tb::api::ServiceStats s = service_.stats();
    resp.set("queries", Value::number_v(static_cast<double>(s.queries)));
    resp.set("cells", Value::number_v(static_cast<double>(s.cells)));
    resp.set("memory_hits",
             Value::number_v(static_cast<double>(s.memory_hits)));
    resp.set("disk_hits", Value::number_v(static_cast<double>(s.disk_hits)));
    resp.set("misses", Value::number_v(static_cast<double>(s.misses)));
    resp.set("store_entries",
             Value::number_v(static_cast<double>(s.store_entries)));
  }

  tb::api::Service service_;
};

}  // namespace

int main(int argc, char** argv) {
  // The daemon speaks only through iostreams (serve() flushes after every
  // response), so the standard streams need not stay in step with stdio.
  // Synced, std::getline reads a request one locked getc at a time, which
  // cost ~5 us of a ~13 us memory-hit round trip.
  std::ios::sync_with_stdio(false);
  std::string store_override;
  bool have_store_override = false;
  bool read_only_override = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      return kExitOk;
    }
    if (arg == "--version") {
      std::cout << "topobench_server " << kServerVersion << " (protocol "
                << tb::api::kProtocolVersion << ", api "
                << tb::api::kApiVersion << ", store format "
                << tb::store::kStoreFormatVersion << ")\n";
      return kExitOk;
    }
    if (arg == "--store") {
      if (i + 1 >= argc) {
        std::cerr << "topobench_server: --store needs a path\n";
        print_usage(std::cerr);
        return kExitUsage;
      }
      store_override = argv[++i];
      have_store_override = true;
      continue;
    }
    if (arg == "--read-only") {
      read_only_override = true;
      continue;
    }
    std::cerr << "topobench_server: unknown option '" << arg << "'\n";
    print_usage(std::cerr);
    return kExitUsage;
  }

  try {
    tb::api::ServiceConfig cfg = tb::api::ServiceConfig::from_env();
    if (have_store_override) cfg.store_path = store_override;
    if (read_only_override) cfg.store_read_only = true;
    Server server(std::move(cfg));
    return server.serve(std::cin, std::cout);
  } catch (const std::exception& e) {
    // Configuration failures (malformed env knob, unopenable or corrupt
    // store, second writer) are environment errors: nothing was served.
    std::cerr << "topobench_server: " << e.what() << '\n';
    return kExitUsage;
  }
}
