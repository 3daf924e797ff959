#include "core/registry.h"

#include <cmath>
#include <cstdlib>
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

/// Each family's ladder, largest instances capped so the whole benchmark
/// suite solves in minutes with the GK engine (shape, not absolute scale;
/// see "Substitutions" in docs/ARCHITECTURE.md).
std::vector<Network> ladder(Family f, std::uint64_t seed) {
  std::vector<Network> nets;
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(f)));
  switch (f) {
    case Family::BCube:
      // Paper's Table I uses 2-ary BCube.
      for (int k = 2; k <= 5; ++k) nets.push_back(make_bcube(2, k));
      break;
    case Family::DCell:
      for (const auto& [n, l] : {std::pair{3, 1}, {4, 1}, {5, 1}, {2, 2},
                                 {3, 2}}) {
        nets.push_back(make_dcell(n, l));
      }
      break;
    case Family::Dragonfly:
      for (int t = 1; t <= 3; ++t) nets.push_back(make_dragonfly_balanced(t));
      break;
    case Family::FatTree:
      for (int k = 4; k <= 12; k += 2) nets.push_back(make_fat_tree(k));
      break;
    case Family::FlattenedBF:
      // 2-ary flattened butterflies (Table I), 2^(stages-1) routers.
      for (int stages = 5; stages <= 8; ++stages) {
        nets.push_back(make_flattened_butterfly(2, stages));
      }
      break;
    case Family::Hypercube:
      for (int d = 4; d <= 8; ++d) nets.push_back(make_hypercube(d));
      break;
    case Family::HyperX: {
      // Least-cost regular HyperX at bisection 0.4 (paper's default),
      // radix 16, for a ladder of server targets.
      for (const long target : {32L, 64L, 128L, 256L}) {
        const auto params = search_hyperx(16, target, 0.4);
        if (params) nets.push_back(make_hyperx(*params));
      }
      break;
    }
    case Family::Jellyfish:
      for (const int n : {32, 64, 128, 256}) {
        const int degree = std::max(3, static_cast<int>(std::log2(n)) + 2);
        nets.push_back(make_jellyfish(n, degree, 1, rng()));
      }
      break;
    case Family::LongHop:
      for (int dim = 5; dim <= 8; ++dim) {
        nets.push_back(make_long_hop(dim, /*extra_generators=*/dim / 2 + 2,
                                     /*servers_per_switch=*/1, rng()));
      }
      break;
    case Family::SlimFly:
      // One server per router in the registry ladder (TMs are per-ToR, so
      // server multiplicity only scales the x-axis; the Fig 9 bench uses
      // the Besta-Hoefler ~radix/2 recommendation explicitly).
      for (const int q : {5, 13}) nets.push_back(make_slim_fly(q, 1));
      break;
  }
  // Families without a bespoke shared-risk derivation still get structural
  // groups (per-switch incident bundles), so correlated-failure sweeps are
  // meaningful registry-wide.
  for (Network& net : nets) ensure_risk_groups(net);
  return nets;
}

}  // namespace

std::vector<Network> family_instances(Family f, int min_servers,
                                      int max_servers, std::uint64_t seed) {
  std::vector<Network> out;
  for (Network& net : ladder(f, seed)) {
    const int s = net.total_servers();
    if (s >= min_servers && s <= max_servers) out.push_back(std::move(net));
  }
  return out;
}

Network family_representative(Family f, int target_servers,
                              std::uint64_t seed) {
  std::vector<Network> nets = ladder(f, seed);
  if (nets.empty()) throw std::runtime_error("family_representative: empty ladder");
  std::size_t best = 0;
  long best_gap = std::labs(static_cast<long>(nets[0].total_servers()) -
                            target_servers);
  for (std::size_t i = 1; i < nets.size(); ++i) {
    const long gap = std::labs(static_cast<long>(nets[i].total_servers()) -
                               target_servers);
    if (gap < best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return std::move(nets[best]);
}

}  // namespace tb
