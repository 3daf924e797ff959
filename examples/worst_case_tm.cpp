// Adversarial worst-case traffic analysis for a topology you choose — the
// paper's §II-C workflow as a tool, backed by the engine-level search
// (mcf::worst_case_matching):
//
//   $ ./examples/worst_case_tm [options] [family] [target_servers]
//     family in: bcube dcell dragonfly fattree fbf hypercube hyperx
//                jellyfish longhop slimfly          (default: hypercube)
//
// Reports the TM hardness ladder (A2A, RM(1), longest matching), then runs
// the deterministic seeded local search over host matchings and reports
// the worst matching found, its throughput, and the Theorem 2 lower bound
// for context.
//
// exit status: 0 ok, 2 usage error (unknown option/family, malformed or
// out-of-range target).
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "args.h"
#include "core/registry.h"
#include "mcf/adversary.h"
#include "mcf/engine.h"
#include "tm/synthetic.h"
#include "util/table.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;

constexpr const char* kVersion = "1.0.0";

void print_usage(std::ostream& os) {
  os << "usage: worst_case_tm [options] [family] [target_servers]\n"
        "\n"
        "Near-worst-case traffic analysis: the TM hardness ladder plus a\n"
        "deterministic adversarial search over host matchings.\n"
        "\n"
        "  family          bcube dcell dragonfly fattree fbf hypercube\n"
        "                  hyperx jellyfish longhop slimfly (default:\n"
        "                  hypercube)\n"
        "  target_servers  representative instance size, integer in\n"
        "                  [4, 100000] (default: 64)\n"
        "\n"
        "options:\n"
        "  -h, --help      print this help and exit\n"
        "  --version       print the version and exit\n"
        "  --iterations N  swap proposals per restart (default 64)\n"
        "  --restarts N    seeded random restarts (default 2)\n"
        "\n"
        "exit status: 0 ok, 2 usage error\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tb;
  const std::map<std::string, Family> by_name{
      {"bcube", Family::BCube},         {"dcell", Family::DCell},
      {"dragonfly", Family::Dragonfly}, {"fattree", Family::FatTree},
      {"fbf", Family::FlattenedBF},     {"hypercube", Family::Hypercube},
      {"hyperx", Family::HyperX},       {"jellyfish", Family::Jellyfish},
      {"longhop", Family::LongHop},     {"slimfly", Family::SlimFly}};

  std::string family = "hypercube";
  long target = 64;
  mcf::WorstCaseOptions wc;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      return kExitOk;
    }
    if (arg == "--version") {
      std::cout << "worst_case_tm " << kVersion << '\n';
      return kExitOk;
    }
    if (arg == "--iterations" || arg == "--restarts") {
      if (i + 1 >= argc) {
        std::cerr << "worst_case_tm: " << arg << " needs a value\n";
        return kExitUsage;
      }
      long v = 0;
      if (!examples::parse_int(argv[++i], 0, 1'000'000, &v)) {
        std::cerr << "worst_case_tm: bad value '" << argv[i] << "' for "
                  << arg << "\n";
        return kExitUsage;
      }
      (arg == "--iterations" ? wc.iterations : wc.restarts) =
          static_cast<int>(v);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "worst_case_tm: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return kExitUsage;
    }
    positional.push_back(arg);
  }
  if (positional.size() > 2) {
    std::cerr << "worst_case_tm: too many arguments\n";
    print_usage(std::cerr);
    return kExitUsage;
  }
  if (!positional.empty()) family = positional[0];
  const auto it = by_name.find(family);
  if (it == by_name.end()) {
    std::cerr << "worst_case_tm: unknown family '" << family << "'\n";
    print_usage(std::cerr);
    return kExitUsage;
  }
  if (positional.size() > 1 &&
      !examples::parse_int(positional[1], 4, 100'000, &target)) {
    std::cerr << "worst_case_tm: target_servers must be an integer in "
                 "[4, 100000], got '"
              << positional[1] << "'\n";
    return kExitUsage;
  }

  const Network net =
      family_representative(it->second, static_cast<int>(target), /*seed=*/1);
  std::cout << "Network: " << net.name << " — " << net.graph.num_nodes()
            << " switches, " << net.graph.num_edges() << " links, "
            << net.total_servers() << " servers\n\n";

  wc.solve.epsilon = 0.04;
  mcf::ThroughputEngine engine(net);
  const double a2a = engine.solve(all_to_all(net), wc.solve).throughput;
  const double bound = mcf::theorem2_lower_bound(a2a);

  Table table({"traffic matrix", "throughput", "vs lower bound"});
  const auto add = [&](const TrafficMatrix& tm, double thr) {
    table.add_row({tm.name, Table::fmt(thr), Table::fmt(thr / bound, 2) + "x"});
  };
  add(all_to_all(net), a2a);
  {
    const TrafficMatrix rm = random_matching(net, 1, 7);
    add(rm, engine.solve(rm, wc.solve).throughput);
  }
  const mcf::WorstCaseResult worst = mcf::worst_case_matching(net, wc);
  {
    TrafficMatrix lm = longest_matching(net);
    add(lm, worst.initial);
  }
  add(worst.tm, worst.throughput);
  table.print(std::cout);

  std::cout << "\nTheorem 2 lower bound:          " << Table::fmt(bound)
            << "\nAdversary vs LM heuristic:      "
            << Table::fmt(worst.initial > 0.0
                              ? 100.0 * (worst.initial - worst.throughput) /
                                    worst.initial
                              : 0.0,
                          1)
            << "% lower"
            << "\nSearch: " << worst.solves << " solves, "
            << worst.improvements << " accepted moves\n";
  return kExitOk;
}
