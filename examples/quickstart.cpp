// Quickstart: ask throughput questions through tb::api — the single stable
// public façade (include api/topobench.h and nothing else).
//
//   $ ./examples/quickstart [target_servers]     (in [4, 100000])
//
// Builds a Jellyfish (random regular) topology, evaluates the all-to-all,
// random-matching and longest-matching (near-worst-case) TMs through an
// api::Service, reports the Theorem 2 lower bound T_A2A / 2, and shows the
// cache tier answering each repeat query.
#include <iomanip>
#include <iostream>

#include "api/topobench.h"
#include "args.h"

int main(int argc, char** argv) {
  long target = 64;
  if (argc > 2 ||
      (argc > 1 && !examples::parse_int(argv[1], 4, 100'000, &target))) {
    std::cerr << "usage: quickstart [target_servers]  (integer in "
                 "[4, 100000], default 64)\n";
    return 2;
  }

  tb::api::Service service;  // no store attached: in-process cache only

  tb::api::Query q;
  q.topology = tb::api::build_topology("jellyfish", static_cast<int>(target),
                                        /*seed=*/1);
  q.epsilon = 0.03;
  q.seed = 7;

  std::cout << "Topology: " << q.topology.label << "\n\n"
            << std::left << std::setw(12) << "tm" << std::right
            << std::setw(12) << "throughput" << std::setw(10) << "source"
            << '\n';
  double a2a_throughput = 0.0;
  for (const char* tm : {"a2a", "rm(1)", "lm"}) {
    q.tm = tb::api::build_tm(tm);
    const tb::api::QueryResult r = service.query(q);
    if (std::string(tm) == "a2a") a2a_throughput = r.record.throughput;
    std::cout << std::left << std::setw(12) << r.record.tm << std::right
              << std::setw(12) << std::fixed << std::setprecision(4)
              << r.record.throughput << std::setw(10)
              << tb::api::to_string(r.source) << '\n';
  }

  // Theorem 2 (JyothiSGK16): any TM composed of per-server matchings has
  // throughput at least T_A2A / 2.
  std::cout << "\nTheorem 2 lower bound (T_A2A / 2): " << std::fixed
            << std::setprecision(4) << a2a_throughput / 2.0 << '\n';

  // A repeat of an identical query never solves again — it is answered
  // from the Service's cache with the original bytes.
  q.tm = tb::api::build_tm("a2a");
  const tb::api::QueryResult again = service.query(q);
  std::cout << "repeat a2a query answered from: "
            << tb::api::to_string(again.source) << '\n';

  const tb::api::ServiceStats stats = service.stats();
  std::cout << "service stats: " << stats.queries << " queries, "
            << stats.misses << " solved, " << stats.memory_hits
            << " memory hits\n";
  return 0;
}
