// Figures 10 & 11: robustness to non-uniform demand — the longest-matching
// TM with x% of flows given weight 10 (others weight 1), x swept over
// 1..100, relative throughput per family.
//
// Paper claims reproduced: all families degrade gracefully except the fat
// tree, which dips sharply when a few elephants dominate (its ToR uplinks
// carry only locally originated traffic, so one weight-10 flow pins a ToR).
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV, one TM family per elephant fraction.
#include <iostream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "tm/synthetic.h"
#include "util/table.h"

int main() {
  using namespace tb;
  const std::string caption =
      "Figs 10-11: relative throughput with x% weight-10 elephant flows "
      "(LM base)";
  const std::vector<double> fractions = {0.01, 0.05, 0.20, 0.50, 1.00};

  exp::Sweep sweep;
  sweep.solve.epsilon = exp::eps_knob(0.10);
  sweep.trials = exp::trials_knob(2);
  sweep.base_seed = 7000;
  const std::vector<Family> families = all_families();
  for (const Family f : families) {
    sweep.topologies.push_back(
        exp::representative_spec(f, /*target_servers=*/128, /*seed=*/1));
  }
  std::vector<std::string> columns;  // "x=<percent>%", one per TM family
  for (const double frac : fractions) {
    columns.push_back("x=" + Table::fmt(100.0 * frac, 0) + "%");
    sweep.tms.push_back({"LM+elephants(" + columns.back() + ")",
                         [frac](const Network& net, std::uint64_t) {
                           return with_elephants(longest_matching(net), frac,
                                                 10.0, /*seed=*/77);
                         }});
  }

  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;

  std::vector<std::string> header{"topology", "servers"};
  header.insert(header.end(), columns.begin(), columns.end());
  Table table(std::move(header));
  for (std::size_t i = 0; i < families.size(); ++i) {
    const std::string& label = sweep.topologies[i].label;
    std::vector<std::string> row{
        family_name(families[i]),
        std::to_string(rs.at(label, sweep.tms.front().label).servers)};
    for (const exp::TmSpec& tm : sweep.tms) {
      row.push_back(Table::fmt(rs.at(label, tm.label).relative, 3));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
