// The adversary workload: mcf::worst_case_matching, the paper's generated
// near-worst-case TM (§II-C), on four family representatives. A search is a
// warm chain whose TM changes at every step (length seeding off, tree reuse
// on), so it exercises a different warm-start path than ScenarioFleet.
#include <cmath>
#include <string>
#include <vector>

#include "core/registry.h"
#include "mcf/adversary.h"
#include "perf.h"
#include "tm/synthetic.h"
#include "util/rng.h"

namespace perf {
namespace {

using tb::Family;
using tb::Network;

constexpr int kSetupReps = 15;
constexpr int kServers = 64;
constexpr int kIterations = 8;
constexpr int kRestarts = 1;
constexpr double kEps = 0.1;

const std::vector<Family> kFamilies = {Family::FatTree, Family::Hypercube,
                                       Family::Jellyfish, Family::Dragonfly};

tb::mcf::WorstCaseOptions search_options(std::uint64_t seed, int threads) {
  tb::mcf::WorstCaseOptions o;
  o.iterations = kIterations;
  o.restarts = kRestarts;
  o.seed = seed;
  o.solve.epsilon = kEps;
  o.solve.solver_threads = threads;
  return o;
}

struct Search {
  std::size_t family = 0;
  double seconds = 0.0;
  tb::mcf::WorstCaseResult result;
};

/// Search k of a run uses seed mix_seed(seed, k) on family k mod 4.
Search run_search(const std::vector<Network>& nets, std::uint64_t seed,
                  std::uint64_t k, int threads) {
  Search s;
  s.family = static_cast<std::size_t>(k % kFamilies.size());
  const tb::Timer t;
  s.result = tb::mcf::worst_case_matching(
      nets[s.family], search_options(tb::mix_seed(seed, k), threads));
  s.seconds = t.seconds();
  return s;
}

std::vector<Network> build_nets() {
  std::vector<Network> nets;
  for (const Family f : kFamilies) {
    nets.push_back(tb::family_representative(f, kServers, kRegistrySeed));
  }
  return nets;
}

/// The checks of one search; `a2a` is the family's all-to-all throughput.
bool check_search(const Search& s, const std::vector<Network>& nets,
                  const std::vector<double>& a2a, Report& report) {
  const Network& net = nets[s.family];
  const tb::mcf::WorstCaseResult& r = s.result;
  const std::string where = "adversary " + net.name;
  bool ok = report.expect(std::isfinite(r.throughput) && r.throughput > 0.0,
                          where + ": worst throughput not finite and > 0");
  ok &= report.expect(r.throughput <= r.initial,
                      where + ": worst above the initial candidate");
  ok &= report.expect(
      theorem2_holds(r.throughput, hose_scale(r.tm), a2a[s.family], kEps),
      where + ": worst below (1-eps) T_A2A/2 (Theorem 2)");
  ok &= report.expect(
      r.throughput <= volumetric_bound(net, r.tm) * (1.0 + 1e-9),
      where + ": worst above the volumetric bound");
  ok &= report.expect(r.solves >= 1 && r.improvements <= r.solves,
                      where + ": inconsistent search counters");
  return ok;
}

std::vector<double> a2a_throughputs(const std::vector<Network>& nets) {
  tb::mcf::SolveOptions so;
  so.epsilon = kEps;
  std::vector<double> out;
  for (const Network& net : nets) {
    tb::mcf::ThroughputEngine engine(net);
    out.push_back(engine.solve(tb::all_to_all(net), so).throughput);
  }
  return out;
}

void run_untraced(const Options& opts, Report& report) {
  std::vector<double> setup;
  std::vector<Network> nets;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const tb::Timer t;
    nets = build_nets();
    setup.push_back(t.seconds());
  }
  // Timed phase: rounds of the four searches (one worst-case comparison
  // across the families) until --seconds have passed.
  std::vector<Search> searches;
  std::vector<double> latency;
  std::vector<double> rate;
  const tb::Timer wall;
  do {
    const tb::Timer round;
    long solves = 0;
    for (std::size_t f = 0; f < kFamilies.size(); ++f) {
      searches.push_back(run_search(nets, opts.seed, searches.size(), 0));
      solves += searches.back().result.solves;
    }
    latency.push_back(round.seconds());
    rate.push_back(static_cast<double>(solves) / latency.back());
  } while (wall.seconds() < opts.seconds);

  const std::vector<double> a2a = a2a_throughputs(nets);
  for (const Search& s : searches) {
    report.attempted += s.result.solves;
    if (!check_search(s, nets, a2a, report)) report.failed += s.result.solves;
  }
  report.note("rounds " + std::to_string(latency.size()));
  end_to_end(report, setup, rate, latency, peak_rss_mb("self"));
}

void run_traced(const Options& opts, Report& report) {
  Tracer tracer;
  WalkCounters wc;
  tb::mcf::SolveOptions so;
  so.epsilon = kEps;
  so.solver_threads = 1;
  const int root = tracer.open("trace.walk", {});
  std::vector<Network> nets;
  for (const Family f : kFamilies) {
    const Scope s(tracer, "topo.build", {"", tb::family_name(f), "", ""});
    nets.push_back(tb::family_representative(f, kServers, kRegistrySeed));
  }
  // Per family: the reference solves the checks use (A2A for Theorem 2,
  // and LM, the search's anchor), then the search itself, serially.
  std::vector<Search> walked;
  std::vector<double> a2a;
  std::vector<double> lm;
  for (std::uint64_t k = 0; k < kFamilies.size(); ++k) {
    const Network& net = nets[k];
    {
      const Scope ref(tracer, "check.reference",
                      {op_id('f', k), net.name, "", ""});
      tb::TrafficMatrix a2a_tm;
      {
        const Scope s(tracer, "tm.build");
        a2a_tm = tb::all_to_all(net);
      }
      tb::TrafficMatrix lm_tm;
      {
        const Scope s(tracer, "tm.lm");
        lm_tm = tb::longest_matching(net);
      }
      tb::mcf::ThroughputEngine engine(net);
      a2a.push_back(
          traced_solve(tracer, wc, engine, a2a_tm, so, false).throughput);
      tb::mcf::ThroughputEngine lm_engine(net);
      lm.push_back(
          traced_solve(tracer, wc, lm_engine, lm_tm, so, false).throughput);
    }
    const Scope op(tracer, "exp.search",
                   {op_id('s', k), net.name, "WorstCase", ""});
    const Scope s(tracer, "mcf.adversary");
    walked.push_back(run_search(nets, opts.seed, k, /*threads=*/1));
    wc.adversary_solves += walked.back().result.solves;
    wc.adversary_improvements += walked.back().result.improvements;
    ++wc.ops;
  }
  tracer.close(root);

  // The same searches untraced on the shared pool: the overlap denominator
  // and the cross-check reference (thread count never changes a bit).
  for (std::uint64_t k = 0; k < kFamilies.size(); ++k) {
    const Search ref = run_search(nets, opts.seed, k, /*threads=*/0);
    wc.untraced_wall_s += ref.seconds;
    const Search& x = walked[k];
    const std::string where = "adversary " + nets[k].name;
    bool ok = check_search(ref, nets, a2a, report);
    ok &= report.expect(same_bits(x.result.throughput, ref.result.throughput) &&
                            x.result.solves == ref.result.solves &&
                            x.result.improvements == ref.result.improvements,
                        where + ": serial walk differs from the pooled search");
    ok &= report.expect(same_bits(lm[k], ref.result.initial),
                        where + ": LM solve differs from the search anchor");
    if (!ok) ++report.failed;
  }
  report.attempted = wc.ops;
  finish_trace(tracer, root, wc, opts, report);
}

}  // namespace

void run_adversary(const Options& opts, Report& report) {
  if (opts.trace) {
    run_traced(opts, report);
  } else {
    run_untraced(opts, report);
  }
}

}  // namespace perf
