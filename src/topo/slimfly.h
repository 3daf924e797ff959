// Slim Fly (Besta & Hoefler, SC'14): diameter-2 networks built from
// McKay-Miller-Siran (MMS) graphs over a finite field F_q.
//
// Construction (q prime, q = 4w + 1 here): let xi be a primitive element
// of F_q, X = {xi^0, xi^2, ...} the even powers and X' = {xi^1, xi^3, ...}
// the odd powers. Vertices are (0, x, y) and (1, m, c) with x, y, m, c in
// F_q (2q^2 routers total). Edges:
//   (0, x, y) ~ (0, x, y')  iff  y - y' in X
//   (1, m, c) ~ (1, m, c')  iff  c - c' in X'
//   (0, x, y) ~ (1, m, c)   iff  y = m*x + c
// Router degree is (3q - 1)/2 and the diameter is exactly 2.
//
// We support prime q with q % 4 == 1 (q = 5, 13, 17, 29, ...), which covers
// the sizes evaluated; prime powers and the q%4==3 variant are not built
// (see "Substitutions" in docs/ARCHITECTURE.md).
#pragma once

#include "topo/network.h"

namespace tb {

/// Whether `q` is supported (prime, q % 4 == 1).
bool slim_fly_supports(int q);

Network make_slim_fly(int q, int servers_per_router);

}  // namespace tb
