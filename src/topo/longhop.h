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
//
// The gap is scored exactly, in integers, from the Cayley graph's closed-form
// spectrum (Babai 1979): character chi of Z_2^dim is an eigenvector of the
// adjacency matrix with eigenvalue sum_{s in S} (-1)^popcount(chi & s). Each
// greedy step scores the first 24 candidates of the shuffled pool by their
// largest nontrivial (chi != 0) eigenvalue and takes the smallest; ties go
// to the candidate with the fewest nontrivial characters attaining it, then
// to the first in pool order. No floating point decides the choice.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/network.h"

namespace tb {

/// dim: nodes = 2^dim; extra_generators: degree = dim + extra_generators.
/// Candidate pool and greedy choice are deterministic given `seed`.
Network make_long_hop(int dim, int extra_generators, int servers_per_switch,
                      std::uint64_t seed = 7);

/// lambda_2 of the normalized Laplacian of the Cayley graph on Z_2^dim with
/// generator set S (node u adjacent to u ^ s): 1 - max_{chi != 0}
/// sum_{s in S} (-1)^popcount(chi & s) / |S|, in O(|S| * 2^dim) integer
/// work. Requires dim in [1, 16] and every generator in [1, 2^dim).
double cayley_spectral_gap(int dim,
                           const std::vector<std::uint32_t>& generators);

}  // namespace tb
