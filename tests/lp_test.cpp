#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "lp/simplex.h"

namespace tb::lp {
namespace {

TEST(Simplex, SimpleMaximize) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2, 6).
  Problem p;
  p.maximize = true;
  const int x = p.add_var(3.0);
  const int y = p.add_var(5.0);
  p.add_row({{{x, 1.0}}, Sense::LE, 4.0});
  p.add_row({{{y, 2.0}}, Sense::LE, 12.0});
  p.add_row({{{x, 3.0}, {y, 2.0}}, Sense::LE, 18.0});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-8);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 2.0, 1e-8);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 6.0, 1e-8);
}

TEST(Simplex, SimpleMinimizeWithGe) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2, y >= 3 -> x=7, y=3 -> 23.
  Problem p;
  p.maximize = false;
  const int x = p.add_var(2.0);
  const int y = p.add_var(3.0);
  p.add_row({{{x, 1.0}, {y, 1.0}}, Sense::GE, 10.0});
  p.add_row({{{x, 1.0}}, Sense::GE, 2.0});
  p.add_row({{{y, 1.0}}, Sense::GE, 3.0});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 23.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // max x + y s.t. x + y = 5, x <= 3 -> 5.
  Problem p;
  const int x = p.add_var(1.0);
  const int y = p.add_var(1.0);
  p.add_row({{{x, 1.0}, {y, 1.0}}, Sense::EQ, 5.0});
  p.add_row({{{x, 1.0}}, Sense::LE, 3.0});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-8);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)] + r.x[static_cast<std::size_t>(y)],
              5.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 2.
  Problem p;
  const int x = p.add_var(1.0);
  p.add_row({{{x, 1.0}}, Sense::LE, 1.0});
  p.add_row({{{x, 1.0}}, Sense::GE, 2.0});
  const Result r = solve(p);
  EXPECT_EQ(r.status, Status::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // max x with only x >= 1.
  Problem p;
  const int x = p.add_var(1.0);
  p.add_row({{{x, 1.0}}, Sense::GE, 1.0});
  const Result r = solve(p);
  EXPECT_EQ(r.status, Status::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // max -x s.t. -x <= -2  (i.e. x >= 2): optimum -2.
  Problem p;
  const int x = p.add_var(-1.0);
  p.add_row({{{x, -1.0}}, Sense::LE, -2.0});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-8);
}

TEST(Simplex, DegenerateLpTerminates) {
  // A classic degenerate corner; just require optimal termination.
  Problem p;
  const int x = p.add_var(0.75);
  const int y = p.add_var(-150.0);
  const int z = p.add_var(0.02);
  const int w = p.add_var(-6.0);
  p.add_row({{{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}}, Sense::LE, 0.0});
  p.add_row({{{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}}, Sense::LE, 0.0});
  p.add_row({{{z, 1.0}}, Sense::LE, 1.0});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 0.05, 1e-6);  // Beale's example optimum 1/20
}

TEST(Simplex, DualsMatchKnownValues) {
  // max 3x + 5y (same as SimpleMaximize): duals are (0, 1.5, 1).
  Problem p;
  const int x = p.add_var(3.0);
  const int y = p.add_var(5.0);
  p.add_row({{{x, 1.0}}, Sense::LE, 4.0});
  p.add_row({{{y, 2.0}}, Sense::LE, 12.0});
  p.add_row({{{x, 3.0}, {y, 2.0}}, Sense::LE, 18.0});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  ASSERT_EQ(r.dual.size(), 3u);
  EXPECT_NEAR(r.dual[0], 0.0, 1e-7);
  EXPECT_NEAR(r.dual[1], 1.5, 1e-7);
  EXPECT_NEAR(r.dual[2], 1.0, 1e-7);
  // Strong duality: b'y == c'x.
  EXPECT_NEAR(4 * r.dual[0] + 12 * r.dual[1] + 18 * r.dual[2], r.objective,
              1e-6);
}

TEST(Simplex, WarmBasisResolvesWithoutPivots) {
  // A candidate basis is accepted when the solve starts from it: from an
  // optimal basis that takes zero pivots, and a perturbed-rhs re-solve whose
  // optimum keeps the basis takes zero pivots too.
  Problem p;
  p.maximize = true;
  const int x = p.add_var(3.0);
  const int y = p.add_var(5.0);
  p.add_row({{{x, 1.0}}, Sense::LE, 4.0});
  p.add_row({{{y, 2.0}}, Sense::LE, 12.0});
  p.add_row({{{x, 3.0}, {y, 2.0}}, Sense::LE, 18.0});
  const Result cold = solve(p);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_GT(cold.iterations, 0);

  // Internal numbering: x, y = 0, 1; the LE rows' slacks 2, 3, 4. At the
  // optimum (x, y) = (2, 6) only the first row has slack.
  const std::vector<int> optimal = {x, y, 2};
  Options warm;
  warm.warm_basis = &optimal;
  const Result rerun = solve(p, warm);
  ASSERT_EQ(rerun.status, Status::Optimal);
  EXPECT_EQ(rerun.iterations, 0);
  EXPECT_NEAR(rerun.objective, cold.objective, 1e-9);

  // Shrink a rhs: the same basis stays feasible (x = 8/3 leaves the first
  // row's slack at 4/3), so it is accepted and the optimum tracks the rhs.
  p.rows[1].rhs = 10.0;  // 2y <= 10 -> y = 5, x = 8/3 -> 33
  const Result shifted = solve(p, warm);
  ASSERT_EQ(shifted.status, Status::Optimal);
  EXPECT_EQ(shifted.iterations, 0);
  EXPECT_NEAR(shifted.objective, 33.0, 1e-8);

  // A garbage candidate basis must fall back to the cold start, not fail.
  const Result shifted_cold = solve(p);
  ASSERT_GT(shifted_cold.iterations, 0);
  const std::vector<int> bogus = {0, 0, 0};
  Options bad;
  bad.warm_basis = &bogus;
  const Result fallback = solve(p, bad);
  ASSERT_EQ(fallback.status, Status::Optimal);
  EXPECT_EQ(fallback.iterations, shifted_cold.iterations);
  EXPECT_NEAR(fallback.objective, 33.0, 1e-8);
}

/// Exact bit pattern of a double, so -0.0 and 0.0 compare unequal.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A rejected candidate must leave nothing behind: the fallback is the cold
/// solve, bit for bit, whatever the import pivoted before it gave up.
void expect_cold_fallback(const Problem& p, const std::vector<int>& cand) {
  const Result cold = solve(p);
  ASSERT_EQ(cold.status, Status::Optimal);
  Options opts;
  opts.warm_basis = &cand;
  const Result r = solve(p, opts);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_EQ(bits(r.objective), bits(cold.objective));
  EXPECT_EQ(r.iterations, cold.iterations);
  ASSERT_EQ(r.dual.size(), cold.dual.size());
  for (std::size_t i = 0; i < r.dual.size(); ++i) {
    EXPECT_EQ(bits(r.dual[i]), bits(cold.dual[i])) << "row " << i;
  }
  ASSERT_EQ(r.x.size(), cold.x.size());
  for (std::size_t j = 0; j < r.x.size(); ++j) {
    EXPECT_EQ(bits(r.x[j]), bits(cold.x[j])) << "var " << j;
  }
}

TEST(Simplex, RejectedWarmBasisFallsBackToTheColdSolve) {
  // max 3x + 5y + 7w  s.t. x + w <= 4, 2y + 2w <= 12, 3x + 2y + 5w <= 18,
  // x + y >= 1. On the three LE rows column w is column x plus column y;
  // the GE row's artificial covers the fourth. Internal numbering:
  // x, y, w = 0, 1, 2; slacks of the LE rows 3, 4, 5; the GE row's surplus
  // 6 and its artificial 7.
  Problem p;
  p.maximize = true;
  const int x = p.add_var(3.0);
  const int y = p.add_var(5.0);
  const int w = p.add_var(7.0);
  p.add_row({{{x, 1.0}, {w, 1.0}}, Sense::LE, 4.0});
  p.add_row({{{y, 2.0}, {w, 2.0}}, Sense::LE, 12.0});
  p.add_row({{{x, 3.0}, {y, 2.0}, {w, 5.0}}, Sense::LE, 18.0});
  p.add_row({{{x, 1.0}, {y, 1.0}}, Sense::GE, 1.0});
  {
    // Distinct but dependent columns (w = x + y - artificial): x and y
    // pivot in, then w has no pivot left among the rows still open.
    SCOPED_TRACE("singular");
    expect_cold_fallback(p, {x, y, w, 7});
  }
  {
    // Nonsingular, but x = 6 from the third row leaves slack 3 at -2.
    SCOPED_TRACE("infeasible");
    expect_cold_fallback(p, {3, 4, x, 7});
  }
}

TEST(Simplex, IterationLimitIsReported) {
  // SimpleMaximize needs two pivots (y enters, then x); a one-pivot budget
  // stops after the first and reports the limit.
  Problem p;
  const int x = p.add_var(3.0);
  const int y = p.add_var(5.0);
  p.add_row({{{x, 1.0}}, Sense::LE, 4.0});
  p.add_row({{{y, 2.0}}, Sense::LE, 12.0});
  p.add_row({{{x, 3.0}, {y, 2.0}}, Sense::LE, 18.0});
  ASSERT_GE(solve(p).iterations, 2);
  Options opts;
  opts.max_iterations = 1;
  const Result r = solve(p, opts);
  EXPECT_EQ(r.status, Status::IterationLimit);
  EXPECT_EQ(r.iterations, 1);
}

TEST(Simplex, DuplicateTermsAreMerged) {
  // max x s.t. 0.5x + 0.5x <= 3 -> 3.
  Problem p;
  const int x = p.add_var(1.0);
  p.add_row({{{x, 0.5}, {x, 0.5}}, Sense::LE, 3.0});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-8);
}

TEST(Simplex, ZeroRowsMeansBoundOnlyProblem) {
  Problem p;
  p.maximize = false;
  p.add_var(1.0);
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
}

TEST(Simplex, MaxFlowAsLp) {
  // s-t max flow on a diamond: s->a(3), s->b(2), a->t(2), b->t(3), a->b(1).
  // Max flow = 5 (the min cut is {a->t, b->t}). Arcs are variables with
  // conservation at a and b.
  Problem p;
  const int sa = p.add_var(0.0);
  const int sb = p.add_var(0.0);
  const int at = p.add_var(1.0);  // objective counts arrivals at t
  const int bt = p.add_var(1.0);
  const int ab = p.add_var(0.0);
  p.add_row({{{sa, 1.0}}, Sense::LE, 3.0});
  p.add_row({{{sb, 1.0}}, Sense::LE, 2.0});
  p.add_row({{{at, 1.0}}, Sense::LE, 2.0});
  p.add_row({{{bt, 1.0}}, Sense::LE, 3.0});
  p.add_row({{{ab, 1.0}}, Sense::LE, 1.0});
  p.add_row({{{sa, 1.0}, {at, -1.0}, {ab, -1.0}}, Sense::EQ, 0.0});
  p.add_row({{{sb, 1.0}, {ab, 1.0}, {bt, -1.0}}, Sense::EQ, 0.0});
  const Result r = solve(p);
  ASSERT_EQ(r.status, Status::Optimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-8);
}

}  // namespace
}  // namespace tb::lp
