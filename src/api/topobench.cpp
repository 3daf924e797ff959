#include "api/topobench.h"

#include <cmath>
#include <istream>
#include <stdexcept>
#include <utility>

#include "core/registry.h"
#include "store/result_store.h"
#include "topo/io.h"
#include "util/env.h"

namespace tb::api {
namespace {

struct FamilyEntry {
  const char* name;
  Family family;
};

/// Sorted; the CLI's historical lowercase spellings.
constexpr FamilyEntry kFamilies[] = {
    {"bcube", Family::BCube},         {"dcell", Family::DCell},
    {"dragonfly", Family::Dragonfly}, {"fattree", Family::FatTree},
    {"fbf", Family::FlattenedBF},     {"hypercube", Family::Hypercube},
    {"hyperx", Family::HyperX},       {"jellyfish", Family::Jellyfish},
    {"longhop", Family::LongHop},     {"slimfly", Family::SlimFly},
};

Family parse_family(const std::string& name) {
  for (const FamilyEntry& e : kFamilies) {
    if (name == e.name) return e.family;
  }
  std::string families;
  for (const FamilyEntry& e : kFamilies) {
    if (!families.empty()) families += ' ';
    families += e.name;
  }
  throw std::invalid_argument("unknown topology family \"" + name +
                              "\" (known: " + families + ")");
}

mcf::SolverKind to_kind(Solver s) {
  switch (s) {
    case Solver::ExactLP:
      return mcf::SolverKind::ExactLP;
    case Solver::GargKonemann:
      return mcf::SolverKind::GargKonemann;
    case Solver::Auto:
      break;
  }
  return mcf::SolverKind::Auto;
}

/// Parse "<head>(<param>=<number>)" and return the number; nullopt when
/// `spec` does not have that shape for this head/param.
std::optional<double> parse_paren_param(const std::string& spec,
                                        const std::string& head,
                                        const std::string& param) {
  const std::string prefix = head + "(" + param + "=";
  if (spec.size() <= prefix.size() + 1 || spec.compare(0, prefix.size(), prefix) != 0 ||
      spec.back() != ')') {
    return std::nullopt;
  }
  const std::string body =
      spec.substr(prefix.size(), spec.size() - prefix.size() - 1);
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(body, &pos);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (pos != body.size()) return std::nullopt;
  if (!std::isfinite(v)) {
    throw std::invalid_argument("build_scenario: " + param +
                                " must be finite, got \"" + spec + "\"");
  }
  return v;
}

exp::Sweep sweep_from(std::vector<Topology> topologies,
                      std::vector<Traffic> tms, Solver solver, double epsilon,
                      int trials, bool cut_bounds,
                      std::vector<Scenario> scenarios, std::uint64_t seed) {
  exp::Sweep sweep;
  sweep.topologies = std::move(topologies);
  sweep.tms = std::move(tms);
  sweep.solve.kind = to_kind(solver);
  sweep.solve.epsilon = epsilon;
  sweep.trials = trials;
  sweep.cut_bounds = cut_bounds;
  sweep.scenarios = std::move(scenarios);
  sweep.base_seed = seed;
  return sweep;
}

}  // namespace

const char* to_string(Source s) {
  switch (s) {
    case Source::Solved:
      return "solved";
    case Source::Memory:
      return "memory";
    case Source::Store:
      return "store";
  }
  return "?";
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kFamilies));
  for (const FamilyEntry& e : kFamilies) names.emplace_back(e.name);
  return names;
}

Topology build_topology(const std::string& family, int target_servers,
                        std::uint64_t seed) {
  const Family f = parse_family(family);  // reject bad input eagerly
  if (target_servers <= 0) {
    throw std::invalid_argument("build_topology: target_servers must be > 0");
  }
  Topology t;
  t.label = family + "(servers=" + std::to_string(target_servers) +
            ",seed=" + std::to_string(seed) + ")";
  // Lazy: a query answered from cache/store never builds the instance.
  // The label is a pure function of (family, target, seed) and
  // family_representative is deterministic in them, so the label-identity
  // contract holds.
  t.build = [f, target_servers, seed] {
    return std::make_shared<const Network>(
        family_representative(f, target_servers, seed));
  };
  return t;
}

Topology custom_topology(Network net) {
  return exp::instance_spec(std::move(net));
}

Topology load_topology(std::istream& in, const std::string& name) {
  Network net = read_edge_list(in, name);
  net.validate();
  return exp::instance_spec(std::move(net));
}

void save_topology(std::ostream& os, const Topology& t) {
  write_edge_list(os, *t.build());
}

Traffic build_tm(const std::string& spec) {
  if (spec == "a2a") return exp::a2a_tm();
  if (spec == "lm") return exp::longest_matching_tm();
  if (spec == "kodialam") return exp::kodialam_tm_spec();
  if (spec.size() > 4 && spec.compare(0, 3, "rm(") == 0 && spec.back() == ')') {
    const std::string body = spec.substr(3, spec.size() - 4);
    std::size_t pos = 0;
    long k = 0;
    try {
      k = std::stol(body, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != body.size() || k < 1 || k > 1000) {
      throw std::invalid_argument(
          "build_tm: rm(<k>) needs an integer k in [1, 1000], got \"" + spec +
          "\"");
    }
    return exp::random_matching_tm(static_cast<int>(k));
  }
  throw std::invalid_argument(
      "build_tm: unknown TM spec \"" + spec +
      "\" (known: a2a, rm(<k>), lm, kodialam)");
}

Scenario build_scenario(const std::string& spec) {
  if (const std::optional<double> f = parse_paren_param(spec, "fail", "f")) {
    if (*f < 0.0 || *f > 1.0) {
      throw std::invalid_argument(
          "build_scenario: fail(f) needs f in [0, 1], got \"" + spec + "\"");
    }
    return exp::random_failure_scenarios({*f}).front();
  }
  if (const std::optional<double> c =
          parse_paren_param(spec, "degrade", "c")) {
    if (!(*c > 0.0) || *c > 1.0) {
      throw std::invalid_argument(
          "build_scenario: degrade(c) needs c in (0, 1], got \"" + spec +
          "\"");
    }
    return exp::degrade_scenario(*c);
  }
  if (const std::optional<double> f =
          parse_paren_param(spec, "groups", "f")) {
    if (*f < 0.0 || *f > 1.0) {
      throw std::invalid_argument(
          "build_scenario: groups(f) needs f in [0, 1], got \"" + spec +
          "\"");
    }
    return exp::correlated_group_scenarios({*f}).front();
  }
  if (const std::optional<double> x = parse_paren_param(spec, "surge", "x")) {
    if (!(*x > 0.0)) {
      throw std::invalid_argument(
          "build_scenario: surge(x) needs x > 0, got \"" + spec + "\"");
    }
    return exp::surge_scenario(*x);
  }
  throw std::invalid_argument(
      "build_scenario: unknown scenario spec \"" + spec +
      "\" (known: fail(f=<frac>), degrade(c=<factor>), groups(f=<frac>), "
      "surge(x=<scale>))");
}

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig cfg;
  if (const std::optional<std::string> path = env::raw("TOPOBENCH_STORE")) {
    cfg.store_path = *path;
  }
  cfg.store_read_only = env::flag_knob("TOPOBENCH_STORE_RO", false);
  cfg.solver_threads = env::int_knob("TOPOBENCH_SOLVER_THREADS", 0, 0, 512);
  return cfg;
}

Service::Service(ServiceConfig cfg)
    : cfg_(std::move(cfg)) {
  run_opts_.solver_threads = cfg_.solver_threads;
  if (!cfg_.store_path.empty()) {
    run_opts_.store = std::make_shared<store::ResultStore>(
        cfg_.store_path, cfg_.store_read_only
                             ? store::ResultStore::Mode::ReadOnly
                             : store::ResultStore::Mode::ReadWrite);
  }
}

SweepResult Service::run_locked(const exp::Sweep& sweep) {
  const exp::CacheStats before = runner_.cache_stats();
  SweepResult out;
  out.results = runner_.run(sweep, run_opts_);
  const exp::CacheStats after = runner_.cache_stats();
  out.stats.memory_hits = after.memory_hits - before.memory_hits;
  out.stats.disk_hits = after.disk_hits - before.disk_hits;
  out.stats.solved = after.misses - before.misses;
  ++queries_;
  cells_ += out.results.size();
  return out;
}

QueryResult Service::query(const Query& q) {
  std::vector<Scenario> scenarios;
  if (q.scenario) scenarios.push_back(*q.scenario);
  const exp::Sweep sweep =
      sweep_from({q.topology}, {q.tm}, q.solver, q.epsilon, q.trials,
                 q.cut_bounds, std::move(scenarios), q.seed);
  const std::lock_guard<std::mutex> lock(mutex_);
  const SweepResult batch = run_locked(sweep);
  QueryResult out;
  out.record = batch.results.rows().front();
  out.source = batch.stats.solved > 0
                   ? Source::Solved
                   : (batch.stats.disk_hits > 0 ? Source::Store
                                                : Source::Memory);
  return out;
}

SweepResult Service::sweep(const SweepQuery& q) {
  const exp::Sweep sweep =
      sweep_from(q.topologies, q.tms, q.solver, q.epsilon, q.trials,
                 q.cut_bounds, q.scenarios, q.seed);
  const std::lock_guard<std::mutex> lock(mutex_);
  return run_locked(sweep);
}

ServiceStats Service::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s;
  s.queries = queries_;
  s.cells = cells_;
  const exp::CacheStats& c = runner_.cache_stats();
  s.memory_hits = c.memory_hits;
  s.disk_hits = c.disk_hits;
  s.misses = c.misses;
  s.store_entries = run_opts_.store ? run_opts_.store->size() : 0;
  return s;
}

}  // namespace tb::api
