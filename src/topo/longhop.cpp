#include "topo/longhop.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace tb {
namespace {

Graph cayley_z2(int dim, const std::vector<std::uint32_t>& generators) {
  const int n = 1 << dim;
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (const std::uint32_t gen : generators) {
      const int v = u ^ static_cast<int>(gen);
      if (u < v) g.add_edge(u, v);
    }
  }
  g.finalize();
  return g;
}

/// Character chi of Z_2^dim is an eigenvector of the Cayley graph's
/// adjacency matrix with eigenvalue sum_{s in S} (-1)^popcount(chi & s).
/// Returns (the largest nontrivial eigenvalue, the number of characters
/// chi != 0 attaining it); smaller is better on both, in that order.
std::pair<int, int> top_eigenvalue(
    int dim, const std::vector<std::uint32_t>& generators) {
  std::vector<int> sums(std::size_t{1} << dim, 0);
  for (const std::uint32_t s : generators) {
    for (std::uint32_t chi = 0; chi < sums.size(); ++chi) {
      sums[chi] += (std::popcount(chi & s) & 1) != 0 ? -1 : 1;
    }
  }
  const int top = *std::max_element(sums.begin() + 1, sums.end());
  return {top, static_cast<int>(std::count(sums.begin() + 1, sums.end(), top))};
}

}  // namespace

double cayley_spectral_gap(int dim,
                           const std::vector<std::uint32_t>& generators) {
  if (dim < 1 || dim > 16 || generators.empty() ||
      std::any_of(generators.begin(), generators.end(),
                  [dim](std::uint32_t s) { return s == 0 || s >> dim != 0; })) {
    throw std::invalid_argument(
        "cayley_spectral_gap: need dim in [1, 16] and generators in "
        "[1, 2^dim)");
  }
  return 1.0 - static_cast<double>(top_eigenvalue(dim, generators).first) /
                   static_cast<double>(generators.size());
}

Network make_long_hop(int dim, int extra_generators, int servers_per_switch,
                      std::uint64_t seed) {
  if (dim < 2 || dim > 16) {
    throw std::invalid_argument("make_long_hop: dim must be in [2, 16]");
  }
  const std::uint32_t space = 1u << dim;
  if (extra_generators < 0 ||
      static_cast<std::uint32_t>(dim + extra_generators) >= space) {
    throw std::invalid_argument("make_long_hop: too many generators");
  }

  // Base generators: the hypercube's unit vectors.
  std::vector<std::uint32_t> gens;
  for (int b = 0; b < dim; ++b) gens.push_back(1u << b);

  // Candidate pool: all vectors of Hamming weight >= 2 (the "long hops"),
  // shuffled deterministically so ties are broken reproducibly. For large
  // dim we cap the pool at 4096 sampled candidates. The size check above
  // leaves at least extra_generators candidates.
  std::vector<std::uint32_t> pool;
  for (std::uint32_t v = 1; v < space; ++v) {
    if (std::popcount(v) >= 2) pool.push_back(v);
  }
  Rng rng(seed);
  rng.shuffle(pool);
  if (pool.size() > 4096) pool.resize(4096);

  // Greedy: add the candidate with the smallest top eigenvalue (every
  // candidate gives the same degree, so this is the largest gap), ties as in
  // longhop.h. We score at most 24 candidates per step (the pool is
  // pre-shuffled, so this is a random subset).
  for (int step = 0; step < extra_generators; ++step) {
    std::pair<int, int> best{std::numeric_limits<int>::max(), 0};
    std::size_t best_idx = 0;
    const std::size_t budget = std::min<std::size_t>(pool.size(), 24);
    for (std::size_t i = 0; i < budget; ++i) {
      gens.push_back(pool[i]);
      const std::pair<int, int> top = top_eigenvalue(dim, gens);
      gens.pop_back();
      if (top < best) {
        best = top;
        best_idx = i;
      }
    }
    gens.push_back(pool[best_idx]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_idx));
  }

  Network net;
  net.name = "LongHop(dim=" + std::to_string(dim) + ",deg=" +
             std::to_string(dim + extra_generators) + ")";
  net.graph = cayley_z2(dim, gens);
  attach_servers_uniform(net, servers_per_switch);
  return net;
}

}  // namespace tb
