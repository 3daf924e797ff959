#include "graph/spectral.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace tb {
namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void normalize(std::vector<double>& v) {
  const double norm = std::sqrt(dot(v, v));
  if (norm == 0.0) return;
  for (double& x : v) x /= norm;
}

}  // namespace

SpectralResult fiedler_vector(const Graph& g, int max_iter, double tol) {
  assert(g.finalized());
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (n < 2) throw std::invalid_argument("fiedler_vector: need >= 2 nodes");

  // Weighted degrees.
  std::vector<double> wdeg(n, 0.0);
  for (int a = 0; a < g.num_arcs(); ++a) {
    wdeg[static_cast<std::size_t>(g.arc_from(a))] += g.arc_cap(a);
  }
  for (const double d : wdeg) {
    if (d <= 0.0) {
      throw std::invalid_argument("fiedler_vector: isolated node");
    }
  }
  std::vector<double> inv_sqrt(n);
  for (std::size_t i = 0; i < n; ++i) inv_sqrt[i] = 1.0 / std::sqrt(wdeg[i]);

  // Known top eigenvector of M = 2I - L (eigenvalue 2): D^{1/2} * 1.
  std::vector<double> top(n);
  for (std::size_t i = 0; i < n; ++i) top[i] = std::sqrt(wdeg[i]);
  normalize(top);

  // Deterministic pseudo-random start, deflated against `top`.
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(static_cast<double>(i) * 1.61803398875 + 0.5);
  }
  const auto deflate = [&](std::vector<double>& x) {
    const double proj = dot(x, top);
    for (std::size_t i = 0; i < n; ++i) x[i] -= proj * top[i];
  };
  deflate(v);
  normalize(v);

  // y = M x where M = 2I - L = I + D^{-1/2} W D^{-1/2}.
  std::vector<double> y(n);
  const auto apply = [&](const std::vector<double>& x, std::vector<double>& out) {
    for (std::size_t i = 0; i < n; ++i) out[i] = x[i];
    for (int a = 0; a < g.num_arcs(); ++a) {
      const auto u = static_cast<std::size_t>(g.arc_from(a));
      const auto w = static_cast<std::size_t>(g.arc_to(a));
      out[u] += g.arc_cap(a) * inv_sqrt[u] * inv_sqrt[w] * x[w];
    }
  };

  SpectralResult result;
  double mu = 0.0;
  for (int it = 0; it < max_iter; ++it) {
    apply(v, y);
    deflate(y);
    const double new_mu = dot(v, y);  // Rayleigh quotient of M
    normalize(y);
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      delta = std::max(delta, std::abs(std::abs(y[i]) - std::abs(v[i])));
    }
    v.swap(y);
    result.iterations = it + 1;
    if (std::abs(new_mu - mu) < tol && delta < 1e-8) {
      mu = new_mu;
      break;
    }
    mu = new_mu;
  }

  // Convert back: eigenvalue of L is 2 - mu; Fiedler coordinates are
  // D^{-1/2} v (the sweep in cuts/ sorts by this embedding).
  result.eigenvalue = 2.0 - mu;
  result.vector.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.vector[i] = v[i] * inv_sqrt[i];
  return result;
}

}  // namespace tb
