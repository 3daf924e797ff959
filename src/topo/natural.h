// "Natural network" synthetics. The paper widens its cut-vs-throughput
// study (Fig 3 / Table II) with 66 measured non-computer networks — food
// webs, social networks, etc. Those datasets are not redistributable, so we
// generate graphs with the same qualitative character the paper relies on
// ("denser at the core, sparse at the edges"): small-world rewired rings
// (Watts-Strogatz), preferential-attachment trees-plus (Barabasi-Albert)
// and planted-partition community graphs. See "Substitutions" in
// docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/network.h"

namespace tb {

/// Watts-Strogatz small world: ring of n nodes, each linked to k nearest
/// neighbours (k even), every edge rewired with probability p.
Network make_watts_strogatz(int n, int k, double rewire_p, std::uint64_t seed);

/// Barabasi-Albert preferential attachment: start from a small clique and
/// attach each new node with m edges.
Network make_barabasi_albert(int n, int m, std::uint64_t seed);

/// Planted partition: `groups` communities of `group_size` nodes; edge
/// probability p_in within and p_out across communities (connectivity is
/// repaired by linking stranded components).
Network make_planted_partition(int groups, int group_size, double p_in,
                               double p_out, std::uint64_t seed);

/// The default suite used by the Fig 3 / Table II benches: a deterministic
/// assortment across the three families.
std::vector<Network> natural_network_suite(int count, std::uint64_t seed);

}  // namespace tb
