// Shared plumbing for the five drivers that do not run on the experiment
// runner (bench/README.md names what each needs that exp::Runner lacks):
// every binary prints one paper artifact as an aligned table (CSV via
// TOPOBENCH_CSV=1). The env knobs live in exp/sweep.h.
#pragma once

#include <iostream>
#include <string>

#include "exp/results.h"
#include "util/table.h"

namespace tb::bench {

inline void emit(const Table& table, const std::string& caption) {
  if (exp::csv_mode()) {
    std::cout << "# " << caption << '\n' << table.to_csv();
  } else {
    table.print(std::cout, caption);
  }
  std::cout << '\n';
}

}  // namespace tb::bench
