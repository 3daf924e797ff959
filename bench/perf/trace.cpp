#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "perf.h"
#include "util/json.h"

namespace perf {

using tb::json::Value;

std::string op_id(char kind, std::size_t index) {
  std::string id(1, kind);
  id += std::to_string(index);
  return id;
}

int Tracer::open(std::string name) {
  Tags tags;
  if (!stack_.empty()) {
    tags = spans_[static_cast<std::size_t>(stack_.back())].tags;
  }
  return open(std::move(name), std::move(tags));
}

int Tracer::open(std::string name, Tags tags) {
  Span s;
  s.name = std::move(name);
  s.tags = std::move(tags);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = clock_.seconds();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end = clock_.seconds();
  // Spans close in LIFO order (Scope guarantees it); tolerate a close of an
  // outer span by unwinding everything above it.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == span) break;
  }
}

void Tracer::rename(int span, std::string name) {
  spans_[static_cast<std::size_t>(span)].name = std::move(name);
}

double Tracer::duration(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  return s.end - s.start;
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  // The walk is single-threaded, so children never overlap each other.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  return self;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double Tracer::self_total(const std::string& prefix) const {
  const std::vector<double> self = self_times();
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name.compare(0, prefix.size(), prefix) == 0) sum += self[i];
  }
  return sum;
}

bool Tracer::write_chrome(const std::string& path, const std::string& workload,
                          const std::vector<Metric>& metrics) const {
  const std::vector<double> self = self_times();
  Value events = Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Value args = Value::object();
    args.set("span", Value::number_v(static_cast<double>(i)));
    args.set("parent", Value::number_v(s.parent));
    args.set("self_us", Value::number_v(self[i] * 1e6));
    if (!s.tags.id.empty()) args.set("id", Value::string_v(s.tags.id));
    if (!s.tags.topology.empty()) {
      args.set("topology", Value::string_v(s.tags.topology));
    }
    if (!s.tags.tm.empty()) args.set("tm", Value::string_v(s.tags.tm));
    if (!s.tags.scenario.empty()) {
      args.set("scenario", Value::string_v(s.tags.scenario));
    }
    Value e = Value::object();
    e.set("name", Value::string_v(s.name));
    e.set("cat", Value::string_v(s.name.substr(0, s.name.find('.'))));
    e.set("ph", Value::string_v("X"));
    e.set("ts", Value::number_v(s.start * 1e6));
    e.set("dur", Value::number_v((s.end - s.start) * 1e6));
    e.set("pid", Value::number_v(1));
    e.set("tid", Value::number_v(1));
    e.set("args", std::move(args));
    events.items.push_back(std::move(e));
  }
  Value layers = Value::object();
  for (const Metric& m : metrics) {
    Value v = Value::object();
    v.set("value", Value::number_v(m.value));
    v.set("unit", Value::string_v(m.unit));
    layers.set(m.name, std::move(v));
  }
  Value other = Value::object();
  other.set("workload", Value::string_v(workload));
  other.set("per_layer", std::move(layers));
  Value doc = Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Value::string_v("ms"));
  doc.set("otherData", std::move(other));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << tb::json::dump(doc) << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_perf: cannot write trace %s\n", path.c_str());
      return false;
    }
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  try {
    const Value back = tb::json::parse(text.str());
    const Value* ev = back.find("traceEvents");
    if (ev == nullptr || ev->kind != tb::json::Kind::Array ||
        ev->items.size() != spans_.size()) {
      std::fprintf(stderr, "bench_perf: trace %s lost events\n", path.c_str());
      return false;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: trace %s does not parse: %s\n",
                 path.c_str(), e.what());
    return false;
  }
  return true;
}

tb::TrafficMatrix traced_tm(Tracer& tracer, const tb::exp::TmSpec& spec,
                            const tb::Network& net, std::uint64_t seed) {
  const Scope s(tracer, spec.label == "LM" ? "tm.lm" : "tm.build");
  return spec.build(net, seed);
}

std::unique_ptr<tb::mcf::ThroughputEngine> traced_engine(
    Tracer& tracer, const tb::Network& net) {
  const Scope s(tracer, "mcf.engine");
  return std::make_unique<tb::mcf::ThroughputEngine>(net);
}

tb::mcf::ThroughputResult traced_solve(Tracer& tracer, WalkCounters& wc,
                                       tb::mcf::ThroughputEngine& engine,
                                       const tb::TrafficMatrix& tm,
                                       const tb::mcf::SolveOptions& opts,
                                       bool warm) {
  const int span = tracer.open(warm ? "mcf.warm_solve" : "mcf.solve");
  const tb::mcf::ThroughputResult r =
      warm ? engine.warm_solve(tm, opts) : engine.solve(tm, opts);
  tracer.close(span);
  if (r.solver == "exact-lp") {
    tracer.rename(span, warm ? "lp.warm_solve" : "lp.solve");
    ++wc.lp_cells;
    wc.pivots += r.stats.pivots;
  } else if (r.solver == "garg-konemann") {
    wc.phases += r.stats.phases;
    wc.dijkstras += r.stats.dijkstras;
    wc.arc_scans += static_cast<double>(r.stats.dijkstras) *
                    engine.network().graph.num_arcs();
    wc.gk_seconds += tracer.duration(span);
  }
  if (warm) {
    ++wc.warm_solves;
    wc.warm_started += r.stats.warm_start ? 1 : 0;
    wc.warm_phases += r.stats.phases;
  }
  return r;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void finish_trace(const Tracer& tracer, int root, const WalkCounters& wc,
                  const Options& opts, Report& report) {
  const std::vector<double> self = tracer.self_times();
  const double walk = tracer.duration(root);
  double serial = 0.0;
  double max_op = 0.0;
  std::vector<double> solves;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    const double d = s.end - s.start;
    if (s.parent == root && s.name.compare(0, 4, "exp.") == 0) {
      serial += d;
      max_op = std::max(max_op, d);
    }
    if (s.name == "mcf.solve" || s.name == "mcf.warm_solve" ||
        s.name == "lp.solve" || s.name == "lp.warm_solve") {
      solves.push_back(d);
    }
  }
  double solve_s = 0.0;
  for (const double d : solves) solve_s += d;
  const double solve_max =
      solves.empty() ? 0.0 : *std::max_element(solves.begin(), solves.end());

  report.metric("trace.walk_s", walk, "s");
  report.metric("trace.coverage",
                1.0 - ratio(self[static_cast<std::size_t>(root)], walk),
                "ratio");
  report.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
  report.metric("topo.build_s", tracer.total("topo.build"), "s");
  report.metric("tm.build_s", tracer.self_total("tm."), "s");
  report.metric("tm.lm_share", ratio(tracer.total("tm.lm"), walk), "ratio");
  report.metric("exp.ops", static_cast<double>(wc.ops), "count");
  report.metric("exp.misses", static_cast<double>(wc.misses), "count");
  report.metric("exp.serial_work_s", serial, "s");
  report.metric("exp.overlap", ratio(serial, wc.untraced_wall_s), "ratio");
  report.metric("exp.max_op_share", ratio(max_op, serial), "ratio");
  report.metric("mcf.solve_s", solve_s, "s");
  report.metric("mcf.solves", static_cast<double>(solves.size()), "count");
  report.metric("mcf.solve_p50_ms", median(solves) * 1e3, "ms");
  report.metric("mcf.solve_max_ms", solve_max * 1e3, "ms");
  report.metric("mcf.gk_share", ratio(wc.gk_seconds, walk), "ratio");
  report.metric("mcf.phases", static_cast<double>(wc.phases), "count");
  report.metric("mcf.dijkstras", static_cast<double>(wc.dijkstras), "count");
  report.metric("mcf.dijkstras_per_s",
                ratio(static_cast<double>(wc.dijkstras), wc.gk_seconds), "1/s");
  report.metric("mcf.arc_scans", wc.arc_scans, "count");
  report.metric("mcf.arc_scans_per_s", ratio(wc.arc_scans, wc.gk_seconds),
                "1/s");
  report.metric("mcf.warm_solves", static_cast<double>(wc.warm_solves),
                "count");
  report.metric("mcf.warm_phases", static_cast<double>(wc.warm_phases),
                "count");
  report.metric("mcf.warm_ratio",
                ratio(static_cast<double>(wc.warm_started),
                      static_cast<double>(wc.warm_solves)),
                "ratio");
  report.metric("mcf.scenario_share",
                ratio(tracer.self_total("mcf.scenario"), walk), "ratio");
  report.metric("mcf.adversary_share",
                ratio(tracer.self_total("mcf.adversary"), walk), "ratio");
  report.metric("mcf.adversary_solves",
                static_cast<double>(wc.adversary_solves), "count");
  report.metric("mcf.adversary_improvements",
                static_cast<double>(wc.adversary_improvements), "count");
  report.metric("mcf.adversary_accept_ratio",
                ratio(static_cast<double>(wc.adversary_improvements),
                      static_cast<double>(wc.adversary_solves)),
                "ratio");
  report.metric("lp.share", ratio(tracer.self_total("lp."), walk), "ratio");
  report.metric("lp.cells", static_cast<double>(wc.lp_cells), "count");
  report.metric("lp.pivots", static_cast<double>(wc.pivots), "count");
  report.metric("cuts.share", ratio(tracer.self_total("cuts."), walk),
                "ratio");
  report.metric("cuts.bisection_share",
                ratio(tracer.self_total("cuts.bisection"), walk), "ratio");
  report.metric("flow.share", ratio(tracer.self_total("flow."), walk),
                "ratio");
  report.metric("flow.pushes", static_cast<double>(wc.flow.pushes), "count");
  report.metric("flow.relabels", static_cast<double>(wc.flow.relabels),
                "count");
  report.metric("flow.global_relabels",
                static_cast<double>(wc.flow.global_relabels), "count");
  report.metric("store.share", ratio(tracer.self_total("store."), walk),
                "ratio");
  report.metric("store.gets", static_cast<double>(wc.store_gets), "count");
  report.metric("store.puts", static_cast<double>(wc.store_puts), "count");
  report.metric("store.bytes", wc.store_bytes, "B");
  report.metric("store.hit_ratio",
                ratio(static_cast<double>(wc.store_hits),
                      static_cast<double>(wc.store_probes)),
                "ratio");
  report.metric("json.share", ratio(tracer.self_total("json."), walk),
                "ratio");
  report.metric("api.solved", static_cast<double>(wc.api_solved), "count");
  report.metric("api.memory_hits", static_cast<double>(wc.api_memory),
                "count");
  report.metric("api.disk_hits", static_cast<double>(wc.api_disk), "count");
  report.expect(report.value("trace.coverage") >= 0.95,
                opts.workload + ": trace coverage below 0.95");
  report.expect(
      tracer.write_chrome(opts.trace_file, opts.workload, report.metrics()),
      opts.workload + ": Chrome trace not written");
}

}  // namespace perf
