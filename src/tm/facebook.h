// Facebook-cluster traffic matrices (paper §IV-B, after Roy et al. [35]).
//
// The measured rack-to-rack matrices are not public — the paper itself
// recovered order-of-magnitude weights from color-coded plot images. We
// generate synthetic rack matrices reproducing the published structure
// ("Substitutions" in docs/ARCHITECTURE.md records this):
//
//  * TM-H (Hadoop cluster): near-uniform all-rack communication with mild
//    log-scale jitter.
//  * TM-F (frontend cluster): skewed — racks are web servers, cache
//    followers or miscellaneous; cache rows/columns carry order-of-
//    magnitude heavier traffic than web<->web traffic.
//
// Matrices are mapped onto a network's host switches, downsampling evenly
// when the network has fewer hosts than racks (the paper's "Sampled"
// series) and optionally permuting rack placement (its "Shuffled" series).
#pragma once

#include <cstdint>
#include <vector>

#include "tm/traffic_matrix.h"
#include "topo/network.h"

namespace tb {

/// Dense racks x racks demand matrix (row-major, zero diagonal).
std::vector<double> synth_tm_hadoop(int racks, std::uint64_t seed);
std::vector<double> synth_tm_frontend(int racks, std::uint64_t seed);

/// Map a rack matrix onto `net`'s hosts. If the network has H < racks
/// hosts, racks are sampled evenly (stride racks/H); if H >= racks, the
/// first `racks` hosts are used. The result is hose-normalized so the
/// busiest rack sends/receives 1 unit. `placement_seed == 0` keeps the
/// identity rack->host order ("Sampled"); otherwise racks are randomly
/// permuted first ("Shuffled").
TrafficMatrix map_rack_tm(const Network& net, const std::vector<double>& rack_tm,
                          int racks, std::uint64_t placement_seed);

}  // namespace tb
