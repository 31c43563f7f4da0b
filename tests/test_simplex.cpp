// Tests for the dense two-phase simplex solver on hand-checked and
// structured linear programs.
#include <gtest/gtest.h>

#include "bbs/common/assert.hpp"
#include "testing/simplex.hpp"

namespace bbs::solver {
namespace {

using linalg::DenseMatrix;

DenseMatrix rows(std::size_t m, std::size_t n,
                 std::initializer_list<double> values) {
  DenseMatrix a(m, n);
  auto it = values.begin();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = *it++;
  return a;
}

TEST(Simplex, TextbookMaximisation) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
  // -> (2, 6), objective 36. As minimisation of -3x - 5y.
  const auto a = rows(5, 2,
                      {1, 0,
                       0, 2,
                       3, 2,
                       -1, 0,
                       0, -1});
  const LpResult r = solve_lp_simplex({-3.0, -5.0}, a, {4, 12, 18, 0, 0});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 6.0, 1e-9);
  EXPECT_NEAR(r.objective, -36.0, 1e-9);
}

TEST(Simplex, FreeVariablesViaSplit) {
  // min x s.t. x >= -5 (i.e. -x <= 5); optimum at the negative value -5.
  const auto a = rows(1, 1, {-1});
  const LpResult r = solve_lp_simplex({1.0}, a, {5.0});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], -5.0, 1e-9);
}

TEST(Simplex, NegativeRhsNeedsPhase1) {
  // x >= 2 written as -x <= -2; min x -> 2.
  const auto a = rows(1, 1, {-1});
  const LpResult r = solve_lp_simplex({1.0}, a, {-2.0});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 3.
  const auto a = rows(2, 1, {1, -1});
  const LpResult r = solve_lp_simplex({1.0}, a, {1.0, -3.0});
  EXPECT_EQ(r.status, SolveStatus::kPrimalInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x s.t. x >= 0: unbounded below.
  const auto a = rows(1, 1, {-1});
  const LpResult r = solve_lp_simplex({-1.0}, a, {0.0});
  EXPECT_EQ(r.status, SolveStatus::kDualInfeasible);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Three constraints meeting at the same vertex (0,0) — Bland's rule must
  // avoid cycling.
  const auto a = rows(4, 2,
                      {1, 1,
                       1, 2,
                       2, 1,
                       -1, -1});
  const LpResult r = solve_lp_simplex({-1.0, -1.0}, a, {0.0, 0.0, 0.0, 0.0});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Simplex, EqualityViaTwoInequalities) {
  // x + y = 1 (as <= and >=), min x -> x = 0, y = 1 with y <= 1.
  const auto a = rows(3, 2,
                      {1, 1,
                       -1, -1,
                       0, 1});
  const LpResult r = solve_lp_simplex({1.0, 0.0}, a, {1.0, -1.0, 1.0});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 0.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(Simplex, DimensionMismatchThrows) {
  const auto a = rows(1, 2, {1, 1});
  EXPECT_THROW(solve_lp_simplex({1.0}, a, {1.0}), ContractViolation);
}

}  // namespace
}  // namespace bbs::solver
