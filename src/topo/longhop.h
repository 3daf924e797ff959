// Long Hop networks (Tomic, ANCS'13): Cayley graphs over Z_2^dim whose
// generator set comes from good linear error-correcting codes — the
// hypercube's unit generators plus extra "long hop" generators that boost
// expansion/bisection.
//
// Substitution (see docs/ARCHITECTURE.md): instead of shipping fixed BCH-code
// tables, we select the extra generators greedily from a deterministic
// candidate pool to maximize the normalized spectral gap, which reproduces
// the construction's intent (optimized Cayley expanders over Z_2^dim at a
// chosen degree). With extra = 0 the result is exactly the hypercube.
#pragma once

#include <cstdint>

#include "topo/network.h"

namespace tb {

/// dim: nodes = 2^dim; extra_generators: degree = dim + extra_generators.
/// Candidate pool and greedy choice are deterministic given `seed`.
Network make_long_hop(int dim, int extra_generators, int servers_per_switch,
                      std::uint64_t seed = 7);

}  // namespace tb
