// topobench_cli — a small command-line front end for scripted use, built
// entirely on tb::api (include api/topobench.h and nothing else from the
// library): emits edge lists and plain key-value reports.
//
//   topobench_cli gen  <family> <target_servers> [seed]
//       Generate a topology and print it in edge-list format.
//   topobench_cli eval <edge-list-file> <tm-spec> [epsilon]
//       Throughput of a TM ("a2a", "rm(<k>)", "lm", "kodialam") on a
//       topology file.
//   topobench_cli cuts <edge-list-file>
//       Certified cut upper bound for the longest-matching TM.
//   topobench_cli rel  <family> <target_servers> [trials]
//       Relative throughput vs same-equipment random graphs.
//
// Numeric arguments are strict: target_servers in [4, 100000], seed in
// [0, 2^63), epsilon in [0.0001, 0.3], trials in [1, 100].
//
// Exit status: 0 ok, 1 data error (unreadable/invalid input), 2 usage.
#include <climits>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "api/topobench.h"
#include "args.h"

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  topobench_cli gen  <family> <target_servers> [seed]\n"
            << "  topobench_cli eval <file> <tm-spec> [epsilon]\n"
            << "  topobench_cli cuts <file>\n"
            << "  topobench_cli rel  <family> <target_servers> [trials]\n"
            << "families:";
  for (const std::string& name : tb::api::family_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << "\ntm specs: a2a rm(<k>) lm kodialam\n"
            << "numbers: target_servers in [4, 100000], seed >= 0, epsilon "
               "in [0.0001, 0.3], trials in [1, 100]\n";
  return 2;
}

/// A malformed numeric argument: name it, then the usage exit.
int bad_arg(const char* name, const char* text) {
  std::cerr << "topobench_cli: bad " << name << " '" << text << "'\n";
  return usage();
}

tb::api::Topology load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return tb::api::load_topology(in, path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 3) return usage();
    const std::string cmd = argv[1];

    if (cmd == "gen") {
      if (argc < 4) return usage();
      long target = 0;
      long seed = 1;
      if (!examples::parse_int(argv[3], 4, 100'000, &target)) {
        return bad_arg("target_servers", argv[3]);
      }
      if (argc > 4 && !examples::parse_int(argv[4], 0, LONG_MAX, &seed)) {
        return bad_arg("seed", argv[4]);
      }
      tb::api::save_topology(
          std::cout,
          tb::api::build_topology(argv[2], static_cast<int>(target),
                                  static_cast<std::uint64_t>(seed)));
      return 0;
    }

    if (cmd == "eval") {
      if (argc < 4) return usage();
      tb::api::Query q;
      if (argc > 4 && (!examples::parse_double(argv[4], 0.0, 1.0, &q.epsilon) ||
                       !tb::mcf::epsilon_in_range(q.epsilon))) {
        return bad_arg("epsilon", argv[4]);
      }
      q.topology = load(argv[2]);
      q.tm = tb::api::build_tm(argv[3]);
      q.seed = 7;
      tb::api::Service service;
      const tb::api::Result r = service.query(q).record;
      std::cout << "network " << r.topology << "\ntm " << r.tm << "\nservers "
                << r.servers << "\nthroughput " << r.throughput << "\nsolver "
                << r.solver << '\n';
      return 0;
    }

    if (cmd == "cuts") {
      tb::api::Query q;
      q.topology = load(argv[2]);
      q.tm = tb::api::build_tm("lm");
      q.cut_bounds = true;
      q.seed = 7;
      tb::api::Service service;
      const tb::api::Result r = service.query(q).record;
      std::cout << "network " << r.topology << "\ntm " << r.tm
                << "\nthroughput " << r.throughput << "\ncut_bound "
                << r.cut_bound << "\ncut_gap " << r.cut_gap << "\ncut_method "
                << r.cut_method << '\n';
      return 0;
    }

    if (cmd == "rel") {
      if (argc < 4) return usage();
      long target = 0;
      long trials = 2;
      if (!examples::parse_int(argv[3], 4, 100'000, &target)) {
        return bad_arg("target_servers", argv[3]);
      }
      if (argc > 4 && !examples::parse_int(argv[4], 1, 100, &trials)) {
        return bad_arg("trials", argv[4]);
      }
      tb::api::Query q;
      q.topology = tb::api::build_topology(argv[2], static_cast<int>(target));
      q.tm = tb::api::build_tm("lm");
      q.trials = static_cast<int>(trials);
      q.epsilon = 0.06;
      q.seed = 7;
      tb::api::Service service;
      const tb::api::Result r = service.query(q).record;
      std::cout << "network " << r.topology << "\nthroughput " << r.throughput
                << "\nrandom_mean " << r.random_mean << "\nrelative "
                << r.relative << " +- " << r.relative_ci95 << '\n';
      return 0;
    }
    return usage();
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << '\n';
    return 1;
  }
}
