#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace tb::lp {
namespace {

constexpr double kPivotTol = 1e-9;  // minimum magnitude for a pivot element
constexpr double kCostTol = 1e-8;   // reduced-cost optimality tolerance

/// Internal standard form: min c'x, A x = b (b >= 0), x >= 0. Artificial
/// variables carry a Big-M cost; the basis inverse is kept dense.
struct Standardized {
  int m = 0;                      // rows
  int n = 0;                      // total columns (struct + slack + artificial)
  int num_struct = 0;             // original variables
  std::vector<std::vector<std::pair<int, double>>> cols;  // sparse columns
  std::vector<double> cost;
  std::vector<double> b;
  std::vector<double> row_flip;   // +1/-1 applied to original row i
  std::vector<int> artificial_of_row;  // column id or -1
  double big_m = 0.0;
};

Standardized standardize(const Problem& p) {
  Standardized s;
  s.m = static_cast<int>(p.rows.size());
  s.num_struct = p.num_vars;
  s.cols.resize(static_cast<std::size_t>(p.num_vars));
  s.cost.resize(static_cast<std::size_t>(p.num_vars));
  double max_abs_cost = 1.0;
  for (int j = 0; j < p.num_vars; ++j) {
    const double c = p.objective[static_cast<std::size_t>(j)];
    s.cost[static_cast<std::size_t>(j)] = p.maximize ? -c : c;
    max_abs_cost = std::max(max_abs_cost, std::abs(c));
  }
  s.b.resize(static_cast<std::size_t>(s.m));
  s.row_flip.assign(static_cast<std::size_t>(s.m), 1.0);
  s.artificial_of_row.assign(static_cast<std::size_t>(s.m), -1);

  // First pass: normalized senses and rhs (b >= 0), structural coefficients.
  std::vector<Sense> sense(static_cast<std::size_t>(s.m));
  for (int i = 0; i < s.m; ++i) {
    const Row& row = p.rows[static_cast<std::size_t>(i)];
    double flip = 1.0;
    Sense sn = row.sense;
    if (row.rhs < 0.0) {
      flip = -1.0;
      if (sn == Sense::LE) {
        sn = Sense::GE;
      } else if (sn == Sense::GE) {
        sn = Sense::LE;
      }
    }
    s.row_flip[static_cast<std::size_t>(i)] = flip;
    sense[static_cast<std::size_t>(i)] = sn;
    s.b[static_cast<std::size_t>(i)] = row.rhs * flip;
    for (const auto& [var, coef] : row.terms) {
      if (var < 0 || var >= p.num_vars) {
        throw std::out_of_range("lp::solve: variable index out of range");
      }
      if (coef != 0.0) {
        s.cols[static_cast<std::size_t>(var)].emplace_back(i, coef * flip);
      }
    }
  }

  // Merge duplicate terms within a column (callers may emit repeats).
  for (auto& col : s.cols) {
    std::sort(col.begin(), col.end());
    std::size_t w = 0;
    for (std::size_t r = 0; r < col.size(); ++r) {
      if (w > 0 && col[w - 1].first == col[r].first) {
        col[w - 1].second += col[r].second;
      } else {
        col[w++] = col[r];
      }
    }
    col.resize(w);
  }

  // Slack / surplus / artificial columns.
  s.big_m = 1e7 * max_abs_cost;
  for (int i = 0; i < s.m; ++i) {
    const Sense sn = sense[static_cast<std::size_t>(i)];
    if (sn == Sense::LE) {
      s.cols.push_back({{i, 1.0}});
      s.cost.push_back(0.0);
    } else if (sn == Sense::GE) {
      s.cols.push_back({{i, -1.0}});
      s.cost.push_back(0.0);
    }
  }
  for (int i = 0; i < s.m; ++i) {
    const Sense sn = sense[static_cast<std::size_t>(i)];
    const bool needs_artificial = sn != Sense::LE;
    if (needs_artificial) {
      s.artificial_of_row[static_cast<std::size_t>(i)] =
          static_cast<int>(s.cols.size());
      s.cols.push_back({{i, 1.0}});
      s.cost.push_back(s.big_m);
    }
  }
  s.n = static_cast<int>(s.cols.size());
  return s;
}

/// The cold start: per row, its slack if one exists with +1 coefficient,
/// else its artificial, so Binv is the identity (slack/artificial columns
/// are unit vectors) and x_B = b.
void cold_start(const Standardized& s, std::vector<int>& basis,
                std::vector<double>& binv, std::vector<double>& xb) {
  const int m = s.m;
  basis.assign(static_cast<std::size_t>(m), -1);
  for (int j = s.num_struct; j < s.n; ++j) {
    const auto& col = s.cols[static_cast<std::size_t>(j)];
    if (col.size() == 1 && col[0].second == 1.0) {
      const int i = col[0].first;
      if (basis[static_cast<std::size_t>(i)] == -1) {
        basis[static_cast<std::size_t>(i)] = j;
      }
    }
  }
  std::fill(binv.begin(), binv.end(), 0.0);
  for (int i = 0; i < m; ++i) {
    if (basis[static_cast<std::size_t>(i)] == -1) {
      throw std::logic_error("lp::solve: missing initial basis column");
    }
    binv[static_cast<std::size_t>(i) * m + static_cast<std::size_t>(i)] = 1.0;
  }
  xb = s.b;
}

/// FTRAN: d = Binv * A[j], one dot per row.
void ftran(const Standardized& s, const std::vector<double>& binv, int j,
           std::vector<double>& d) {
  const int m = s.m;
  const auto& col = s.cols[static_cast<std::size_t>(j)];
  for (int r = 0; r < m; ++r) {
    const double* row = &binv[static_cast<std::size_t>(r) * m];
    double acc = 0.0;
    for (const auto& [i, v] : col) acc += v * row[i];
    d[static_cast<std::size_t>(r)] = acc;
  }
}

/// Basis change on Binv: the column whose FTRAN is `d` replaces the basic
/// column of row `leave`. Only the rows with d[i] != 0 change.
void update_binv(int m, const std::vector<double>& d, int leave,
                 std::vector<double>& binv) {
  const double piv = d[static_cast<std::size_t>(leave)];
  double* lrow = &binv[static_cast<std::size_t>(leave) * m];
  for (int j = 0; j < m; ++j) lrow[j] /= piv;
  for (int i = 0; i < m; ++i) {
    const double f = d[static_cast<std::size_t>(i)];
    if (i == leave || f == 0.0) continue;
    double* row = &binv[static_cast<std::size_t>(i) * m];
    for (int j = 0; j < m; ++j) row[j] -= f * lrow[j];
  }
}

/// Warm start from candidate basis `cand` (Options::warm_basis numbering).
/// Starts from the cold basis cold_start() left in basis/binv and pivots
/// each candidate column that is not already basic into a row whose basic
/// column is not a candidate, choosing the largest |d| (the first on ties);
/// the dense update is the simplex's own, so no second m x m buffer exists.
/// Accepts only if every column finds a pivot above kPivotTol (the
/// candidate is nonsingular) and x_B = Binv b >= -1e-7 (primal feasible).
/// On failure returns false with basis/binv partly pivoted: the caller must
/// run cold_start() again.
bool import_basis(const Standardized& s, const std::vector<int>& cand,
                  std::vector<int>& basis, std::vector<double>& binv,
                  std::vector<double>& xb, std::vector<double>& d) {
  const int m = s.m;
  if (static_cast<int>(cand.size()) != m) return false;
  std::vector<std::uint8_t> wanted(static_cast<std::size_t>(s.n), 0);
  for (const int j : cand) {
    if (j < 0 || j >= s.n || wanted[static_cast<std::size_t>(j)]) return false;
    wanted[static_cast<std::size_t>(j)] = 1;
  }
  // The cold columns; each candidate is visited once, and a column leaving
  // below is never a candidate, so this needs no update.
  std::vector<std::uint8_t> cold(static_cast<std::size_t>(s.n), 0);
  for (const int j : basis) cold[static_cast<std::size_t>(j)] = 1;
  for (const int j : cand) {
    if (cold[static_cast<std::size_t>(j)]) continue;
    ftran(s, binv, j, d);
    int leave = -1;
    double best = kPivotTol;
    for (int r = 0; r < m; ++r) {
      if (wanted[static_cast<std::size_t>(basis[static_cast<std::size_t>(r)])]) {
        continue;
      }
      const double v = std::abs(d[static_cast<std::size_t>(r)]);
      if (v > best) {
        best = v;
        leave = r;
      }
    }
    if (leave < 0) return false;  // singular candidate basis
    update_binv(m, d, leave, binv);
    basis[static_cast<std::size_t>(leave)] = j;
  }
  // x_B = Binv b must be (near-)nonnegative for a primal-feasible start.
  for (int i = 0; i < m; ++i) {
    const double* row = &binv[static_cast<std::size_t>(i) * m];
    double acc = 0.0;
    for (int j = 0; j < m; ++j) acc += row[j] * s.b[static_cast<std::size_t>(j)];
    if (acc < -1e-7) return false;
    xb[static_cast<std::size_t>(i)] = std::max(acc, 0.0);
  }
  return true;
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Infeasible: return "infeasible";
    case Status::Unbounded: return "unbounded";
    case Status::IterationLimit: return "iteration-limit";
  }
  return "?";
}

Result solve(const Problem& p, const Options& opts) {
  if (static_cast<int>(p.objective.size()) != p.num_vars) {
    throw std::invalid_argument("lp::solve: objective size != num_vars");
  }
  Result res;
  Standardized s = standardize(p);
  const int m = s.m;
  const int n = s.n;
  if (m == 0) {
    // Only x >= 0: optimum is 0 unless some improving direction exists.
    res.x.assign(static_cast<std::size_t>(p.num_vars), 0.0);
    for (int j = 0; j < p.num_vars; ++j) {
      const double c = s.cost[static_cast<std::size_t>(j)];
      if (c < -kCostTol) {
        res.status = Status::Unbounded;
        return res;
      }
    }
    res.status = Status::Optimal;
    res.objective = 0.0;
    return res;
  }

  std::vector<int> basis;
  std::vector<double> binv(static_cast<std::size_t>(m) *
                               static_cast<std::size_t>(m),
                           0.0);
  std::vector<double> xb;
  std::vector<double> d(static_cast<std::size_t>(m));
  cold_start(s, basis, binv, xb);
  if (opts.warm_basis != nullptr) {
    if (!import_basis(s, *opts.warm_basis, basis, binv, xb, d)) {
      cold_start(s, basis, binv, xb);
    }
  }

  std::vector<std::uint8_t> in_basis(static_cast<std::size_t>(n), 0);
  for (const int j : basis) in_basis[static_cast<std::size_t>(j)] = 1;

  const long max_iter = opts.max_iterations > 0
                            ? opts.max_iterations
                            : 50L * (m + n) + 5000L;
  std::vector<double> y(static_cast<std::size_t>(m));

  long degenerate_streak = 0;
  bool bland = false;

  for (res.iterations = 0; res.iterations < max_iter; ++res.iterations) {
    // BTRAN: y = cB' * Binv, accumulated row-major over the rows whose
    // basic cost is nonzero: the basic artificials and costed structural
    // columns (in the throughput LP only t; flows, slacks and surpluses
    // cost 0). Each y[j] sums the same terms in ascending row order as a
    // full column dot would; the skipped terms are exactly zero, so y is
    // bitwise unchanged by the skip.
    std::fill(y.begin(), y.end(), 0.0);
    for (int i = 0; i < m; ++i) {
      const double c =
          s.cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
      if (c == 0.0) continue;
      const double* row = &binv[static_cast<std::size_t>(i) * m];
      for (int j = 0; j < m; ++j) y[static_cast<std::size_t>(j)] += c * row[j];
    }

    // Pricing: Dantzig (most negative reduced cost), or under Bland's rule
    // the first improving column.
    int entering = -1;
    double best_rc = -kCostTol;
    for (int j = 0; j < n; ++j) {
      if (in_basis[static_cast<std::size_t>(j)]) continue;
      double rc = s.cost[static_cast<std::size_t>(j)];
      for (const auto& [i, v] : s.cols[static_cast<std::size_t>(j)]) {
        rc -= y[static_cast<std::size_t>(i)] * v;
      }
      if (bland) {
        if (rc < -kCostTol) {
          entering = j;
          break;
        }
      } else if (rc < best_rc) {
        best_rc = rc;
        entering = j;
      }
    }
    if (entering < 0) break;  // optimal

    ftran(s, binv, entering, d);

    // Ratio test.
    int leave = -1;
    double theta = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m; ++i) {
      const double di = d[static_cast<std::size_t>(i)];
      if (di > kPivotTol) {
        const double ratio = xb[static_cast<std::size_t>(i)] / di;
        const bool better =
            ratio < theta - 1e-12 ||
            (ratio < theta + 1e-12 && leave >= 0 &&
             (bland ? basis[static_cast<std::size_t>(i)] <
                          basis[static_cast<std::size_t>(leave)]
                    : di > d[static_cast<std::size_t>(leave)]));
        if (leave < 0 || better) {
          theta = ratio;
          leave = i;
        }
      }
    }
    if (leave < 0) {
      res.status = Status::Unbounded;
      return res;
    }

    if (theta < 1e-11) {
      if (++degenerate_streak > 2L * (m + n)) bland = true;
    } else {
      degenerate_streak = 0;
      bland = false;
    }

    // Pivot: update xb and Binv.
    for (int i = 0; i < m; ++i) {
      if (i == leave) continue;
      xb[static_cast<std::size_t>(i)] -= theta * d[static_cast<std::size_t>(i)];
      if (xb[static_cast<std::size_t>(i)] < 0.0 &&
          xb[static_cast<std::size_t>(i)] > -1e-9) {
        xb[static_cast<std::size_t>(i)] = 0.0;
      }
    }
    xb[static_cast<std::size_t>(leave)] = theta;

    update_binv(m, d, leave, binv);

    in_basis[static_cast<std::size_t>(basis[static_cast<std::size_t>(leave)])] = 0;
    basis[static_cast<std::size_t>(leave)] = entering;
    in_basis[static_cast<std::size_t>(entering)] = 1;
  }

  if (res.iterations >= max_iter) {
    res.status = Status::IterationLimit;
    return res;
  }

  // Extract solution; detect infeasibility (artificial basic at > 0).
  res.x.assign(static_cast<std::size_t>(p.num_vars), 0.0);
  double obj = 0.0;
  for (int i = 0; i < m; ++i) {
    const int j = basis[static_cast<std::size_t>(i)];
    const double v = xb[static_cast<std::size_t>(i)];
    if (j >= s.num_struct &&
        s.artificial_of_row[static_cast<std::size_t>(
            s.cols[static_cast<std::size_t>(j)][0].first)] == j &&
        v > 1e-7) {
      res.status = Status::Infeasible;
      return res;
    }
    if (j < p.num_vars) {
      res.x[static_cast<std::size_t>(j)] = v;
      obj += p.objective[static_cast<std::size_t>(j)] * v;
    }
  }
  res.objective = obj;

  // Duals for the original rows (y already reflects the final basis; flip
  // back the sign of rows we negated, and restore the max sense).
  res.dual.resize(static_cast<std::size_t>(m));
  const double obj_sign = p.maximize ? -1.0 : 1.0;
  for (int i = 0; i < m; ++i) {
    res.dual[static_cast<std::size_t>(i)] =
        obj_sign * y[static_cast<std::size_t>(i)] *
        s.row_flip[static_cast<std::size_t>(i)];
  }
  res.status = Status::Optimal;
  return res;
}

}  // namespace tb::lp
