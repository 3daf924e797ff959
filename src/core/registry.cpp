#include "core/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <stdexcept>

#include "topo/bcube.h"
#include "topo/dcell.h"
#include "topo/dragonfly.h"
#include "topo/fattree.h"
#include "topo/flattened_butterfly.h"
#include "topo/hypercube.h"
#include "topo/hyperx.h"
#include "topo/jellyfish.h"
#include "topo/longhop.h"
#include "topo/slimfly.h"
#include "util/rng.h"

namespace tb {

std::string family_name(Family f) {
  switch (f) {
    case Family::BCube: return "BCube";
    case Family::DCell: return "DCell";
    case Family::Dragonfly: return "Dragonfly";
    case Family::FatTree: return "FatTree";
    case Family::FlattenedBF: return "FlattenedBF";
    case Family::Hypercube: return "Hypercube";
    case Family::HyperX: return "HyperX";
    case Family::Jellyfish: return "Jellyfish";
    case Family::LongHop: return "LongHop";
    case Family::SlimFly: return "SlimFly";
  }
  return "?";
}

std::vector<Family> all_families() {
  return {Family::BCube,     Family::DCell,    Family::Dragonfly,
          Family::FatTree,   Family::FlattenedBF, Family::Hypercube,
          Family::HyperX,    Family::Jellyfish,   Family::LongHop,
          Family::SlimFly};
}

namespace {

/// One ladder rung: the server count its instance will have, and the
/// builder that makes it. Callers select rungs by the declared count and
/// build only those.
struct Rung {
  long servers = 0;
  std::function<Network()> build;
};

/// Each family's ladder, largest instances capped so the whole benchmark
/// suite solves in minutes with the GK engine (shape, not absolute scale;
/// see "Substitutions" in docs/ARCHITECTURE.md). Randomized rungs draw
/// their seeds from the family stream in ladder order whether or not they
/// are built, so an instance never depends on which others a caller asks
/// for.
std::vector<Rung> ladder(Family f, std::uint64_t seed) {
  std::vector<Rung> rungs;
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(f)));
  switch (f) {
    case Family::BCube:
      // Paper's Table I uses 2-ary BCube.
      for (int k = 2; k <= 5; ++k) {
        rungs.push_back(
            {bcube_num_servers(2, k), [k] { return make_bcube(2, k); }});
      }
      break;
    case Family::DCell:
      for (const auto& [n, l] : {std::pair{3, 1}, {4, 1}, {5, 1}, {2, 2},
                                 {3, 2}}) {
        rungs.push_back({dcell_num_servers(n, l),
                         [n, l] { return make_dcell(n, l); }});
      }
      break;
    case Family::Dragonfly:
      // Balanced: p = h = t servers and global ports per router, a = 2t
      // routers per group, a*h + 1 groups.
      for (int t = 1; t <= 3; ++t) {
        const long routers = 2L * t * (2L * t * t + 1);
        rungs.push_back(
            {t * routers, [t] { return make_dragonfly_balanced(t); }});
      }
      break;
    case Family::FatTree:
      for (int k = 4; k <= 12; k += 2) {
        rungs.push_back({fat_tree_info(k).num_servers,
                         [k] { return make_fat_tree(k); }});
      }
      break;
    case Family::FlattenedBF:
      // 2-ary flattened butterflies (Table I), 2^(stages-1) routers with
      // two servers each.
      for (int stages = 5; stages <= 8; ++stages) {
        rungs.push_back({1L << stages, [stages] {
                           return make_flattened_butterfly(2, stages);
                         }});
      }
      break;
    case Family::Hypercube:
      for (int d = 4; d <= 8; ++d) {
        rungs.push_back({1L << d, [d] { return make_hypercube(d); }});
      }
      break;
    case Family::HyperX: {
      // Least-cost regular HyperX at bisection 0.4 (paper's default),
      // radix 16, for a ladder of server targets.
      for (const long target : {32L, 64L, 128L, 256L}) {
        if (const auto params = search_hyperx(16, target, 0.4)) {
          rungs.push_back({params->servers(),
                           [p = *params] { return make_hyperx(p); }});
        }
      }
      break;
    }
    case Family::Jellyfish:
      for (const int n : {32, 64, 128, 256}) {
        const int degree = std::max(3, static_cast<int>(std::log2(n)) + 2);
        const std::uint64_t s = rng();
        rungs.push_back({n, [n, degree, s] {
                           return make_jellyfish(n, degree, 1, s);
                         }});
      }
      break;
    case Family::LongHop:
      for (int dim = 5; dim <= 8; ++dim) {
        const std::uint64_t s = rng();
        rungs.push_back({1L << dim, [dim, s] {
                           return make_long_hop(
                               dim, /*extra_generators=*/dim / 2 + 2,
                               /*servers_per_switch=*/1, s);
                         }});
      }
      break;
    case Family::SlimFly:
      // One server per router in the registry ladder (TMs are per-ToR, so
      // server multiplicity only scales the x-axis; the Fig 9 bench uses
      // the Besta-Hoefler ~radix/2 recommendation explicitly).
      for (const int q : {5, 13}) {
        rungs.push_back({2L * q * q, [q] { return make_slim_fly(q, 1); }});
      }
      break;
  }
  return rungs;
}

Network build_rung(const Rung& rung) {
  Network net = rung.build();
  // Families without a bespoke shared-risk derivation still get structural
  // groups (per-switch incident bundles), so correlated-failure sweeps are
  // meaningful registry-wide.
  ensure_risk_groups(net);
  return net;
}

}  // namespace

std::vector<long> family_ladder_servers(Family f) {
  std::vector<long> servers;
  for (const Rung& rung : ladder(f, /*seed=*/0)) {
    servers.push_back(rung.servers);
  }
  return servers;
}

std::vector<Network> family_instances(Family f, int min_servers,
                                      int max_servers, std::uint64_t seed) {
  std::vector<Network> out;
  for (const Rung& rung : ladder(f, seed)) {
    if (rung.servers >= min_servers && rung.servers <= max_servers) {
      out.push_back(build_rung(rung));
    }
  }
  return out;
}

Network family_representative(Family f, int target_servers,
                              std::uint64_t seed) {
  const std::vector<Rung> rungs = ladder(f, seed);
  if (rungs.empty()) throw std::runtime_error("family_representative: empty ladder");
  std::size_t best = 0;
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    if (std::labs(rungs[i].servers - target_servers) <
        std::labs(rungs[best].servers - target_servers)) {
      best = i;
    }
  }
  return build_rung(rungs[best]);
}

}  // namespace tb
