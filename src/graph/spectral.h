// Spectral tools: the eigenvector of the second-smallest eigenvalue of the
// normalized Laplacian (the Fiedler direction). Paper Appendix C uses a
// sweep over this vector as the most successful sparse-cut estimator (it
// found 499 of 581 sparse cuts). Long Hop generator selection does not use
// this module: a Cayley graph on Z_2^dim has a closed-form integer spectrum
// (topo/longhop.h).
#pragma once

#include <vector>

#include "graph/graph.h"

namespace tb {

struct SpectralResult {
  std::vector<double> vector;  ///< second eigenvector of the normalized Laplacian
  double eigenvalue = 0.0;     ///< its eigenvalue (lambda_2), in [0, 2]
  int iterations = 0;          ///< power-iteration steps performed
};

/// Compute (lambda_2, v_2) of the capacity-weighted normalized Laplacian
/// L = I - D^{-1/2} W D^{-1/2} by power iteration on 2I - L with deflation
/// against the known top eigenvector D^{1/2} * 1. The graph must be
/// connected and have no isolated nodes.
SpectralResult fiedler_vector(const Graph& g, int max_iter = 3000,
                              double tol = 1e-10);

}  // namespace tb
