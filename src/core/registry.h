// Topology registry: the ten families evaluated by the paper, each with a
// discrete size ladder (most designs only exist at particular server
// counts). Benches ask for "instances of family F between A and B servers"
// or "the instance of F nearest S servers".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/network.h"

namespace tb {

enum class Family {
  BCube,
  DCell,
  Dragonfly,
  FatTree,
  FlattenedBF,
  Hypercube,
  HyperX,
  Jellyfish,
  LongHop,
  SlimFly,
};

std::string family_name(Family f);
std::vector<Family> all_families();

/// The server count of every rung of `f`'s ladder, ordered by size, known
/// without building any instance (it does not depend on the seed).
std::vector<long> family_ladder_servers(Family f);

/// All ladder instances of `f` whose total server count lies in
/// [min_servers, max_servers], ordered by size. Randomized constructions
/// derive their streams from `seed`. Only the returned instances are built.
std::vector<Network> family_instances(Family f, int min_servers,
                                      int max_servers, std::uint64_t seed);

/// The ladder instance whose server count is closest to `target_servers`
/// (the smaller one on a tie); the only instance built.
Network family_representative(Family f, int target_servers,
                              std::uint64_t seed);

}  // namespace tb
