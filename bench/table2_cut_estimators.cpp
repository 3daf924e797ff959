// Table II (Appendix C): for every network in the study, which sparse-cut
// estimator found the winning (sparsest) cut, and how often the estimated
// cut actually equals LP throughput.
//
// Paper claims reproduced: cuts equal throughput only in a minority of
// networks; the eigenvector sweep wins most often, but the other
// heuristics improve on it in a nontrivial fraction of cases.
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/sweep.h"
#include "core/registry.h"
#include "cuts/sparsest_cut.h"
#include "mcf/engine.h"
#include "tm/synthetic.h"
#include "topo/natural.h"

int main() {
  using namespace tb;
  const double eps = exp::eps_knob(0.04);

  struct FamilyStats {
    int total = 0;
    int cut_equals_throughput = 0;
    std::map<std::string, int> winner_count;
  };
  std::map<std::string, FamilyStats> stats;
  const std::vector<std::string> methods{"brute-force", "one-node", "two-node",
                                         "expanding", "eigenvector",
                                         "st-mincut"};

  const auto process = [&](const std::string& family, const Network& net) {
    const TrafficMatrix tm = longest_matching(net);
    mcf::SolveOptions opts;
    opts.epsilon = eps;
    const double thr = mcf::ThroughputEngine(net).solve(tm, opts).throughput;
    const cuts::SparseCutSurvey survey = cuts::best_sparse_cut(net.graph, tm);
    FamilyStats& fs = stats[family];
    ++fs.total;
    // "Equal" up to solver tolerance.
    if (survey.best.sparsity <= thr * (1.0 + 2.0 * eps)) {
      ++fs.cut_equals_throughput;
    }
    for (const std::string& w : survey.winners) ++fs.winner_count[w];
  };

  for (const Family f : all_families()) {
    for (const Network& net : family_instances(f, 1, 80, /*seed=*/3)) {
      process(family_name(f), net);
    }
    // A few extra random instances for the randomized families.
    if (f == Family::Jellyfish) {
      for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
        Network net = family_instances(f, 1, 80, seed)[0];
        process(family_name(f), net);
      }
    }
  }
  for (const Network& net : natural_network_suite(15, /*seed=*/5)) {
    process("Natural", net);
  }

  std::vector<std::string> header{"family", "total", "cut==throughput"};
  for (const std::string& m : methods) header.push_back(m);
  Table table(header);
  FamilyStats grand;
  for (const auto& [family, fs] : stats) {
    std::vector<std::string> row{family, std::to_string(fs.total),
                                 std::to_string(fs.cut_equals_throughput)};
    grand.total += fs.total;
    grand.cut_equals_throughput += fs.cut_equals_throughput;
    for (const std::string& m : methods) {
      const auto it = fs.winner_count.find(m);
      const int c = it == fs.winner_count.end() ? 0 : it->second;
      row.push_back(std::to_string(c));
      grand.winner_count[m] += c;
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> total_row{"Total", std::to_string(grand.total),
                                     std::to_string(grand.cut_equals_throughput)};
  for (const std::string& m : methods) {
    total_row.push_back(std::to_string(grand.winner_count[m]));
  }
  table.add_row(std::move(total_row));
  bench::emit(table,
              "Table II: which estimator found the sparse cut; does it match "
              "throughput");
  return 0;
}
