// Figure 6: relative throughput vs network size for the expander-family
// proposals — HyperX, Jellyfish, Long Hop, Slim Fly.
//
// Paper claims reproduced: Jellyfish sits at 1 by definition; Long Hop and
// Slim Fly track the random graph closely (within a few percent, Slim Fly
// degrading under LM at size); HyperX is irregular and markedly below 1.
//
// Runs on the experiment runner: TOPOBENCH_CSV=1 emits the uniform cell
// CSV, TOPOBENCH_MAX_SERVERS shrinks the ladder for smoke runs.
#include <iostream>

#include "exp/runner.h"

int main() {
  using namespace tb;
  const std::string caption = "Fig 6: relative throughput vs size (part 2)";
  const exp::Sweep sweep = exp::relative_scaling_sweep(
      {Family::HyperX, Family::Jellyfish, Family::LongHop, Family::SlimFly},
      /*max_servers=*/900);
  exp::Runner runner;
  const exp::ResultSet rs = runner.run(sweep, exp::RunOptions::from_env());
  if (rs.emit(std::cout, caption)) return 0;
  exp::relative_pivot(rs, sweep).print(std::cout, caption);
  std::cout << '\n';
  return 0;
}
