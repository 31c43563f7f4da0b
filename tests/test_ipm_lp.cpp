// Interior-point solver on pure LPs, cross-validated against the independent
// simplex implementation on randomised instances.
#include <gtest/gtest.h>

#include <cmath>

#include "bbs/common/rng.hpp"
#include "bbs/solver/ipm_solver.hpp"
#include "testing/simplex.hpp"

namespace bbs::solver {
namespace {

TEST(IpmLp, BoxConstrainedOptimum) {
  // min -x1 - x2 s.t. 0 <= x <= 1 -> (1,1).
  ConicProblemBuilder b(2);
  b.set_objective(0, -1.0);
  b.set_objective(1, -1.0);
  b.add_inequality({{0, 1.0}}, 1.0);
  b.add_inequality({{1, 1.0}}, 1.0);
  b.add_inequality({{0, -1.0}}, 0.0);
  b.add_inequality({{1, -1.0}}, 0.0);
  const SolveResult r = IpmSolver().solve(b.build());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  EXPECT_NEAR(r.primal_objective, -2.0, 1e-6);
  EXPECT_NEAR(r.primal_objective, r.dual_objective, 1e-5);
}

TEST(IpmLp, DetectsPrimalInfeasible) {
  ConicProblemBuilder b(1);
  b.set_objective(0, 1.0);
  b.add_inequality({{0, 1.0}}, -1.0);  // x <= -1
  b.add_inequality({{0, -1.0}}, 0.0);  // x >= 0
  const SolveResult r = IpmSolver().solve(b.build());
  EXPECT_EQ(r.status, SolveStatus::kPrimalInfeasible);
}

TEST(IpmLp, DetectsUnbounded) {
  ConicProblemBuilder b(1);
  b.set_objective(0, -1.0);
  b.add_inequality({{0, -1.0}}, 0.0);  // x >= 0, min -x
  const SolveResult r = IpmSolver().solve(b.build());
  EXPECT_EQ(r.status, SolveStatus::kDualInfeasible);
}

TEST(IpmLp, ConstantRowInfeasibilityDetected) {
  // A row with no variables and negative rhs encodes 0 <= -3: infeasible.
  // The Algorithm-1 builder relies on this when fixed budgets overflow a
  // processor.
  ConicProblemBuilder b(1);
  b.set_objective(0, 1.0);
  b.add_inequality({}, -3.0);
  b.add_inequality({{0, -1.0}}, 0.0);
  const SolveResult r = IpmSolver().solve(b.build());
  EXPECT_EQ(r.status, SolveStatus::kPrimalInfeasible);
}

TEST(IpmLp, DegenerateRedundantConstraints) {
  // The same constraint repeated five times must not upset convergence.
  ConicProblemBuilder b(1);
  b.set_objective(0, -1.0);
  for (int i = 0; i < 5; ++i) b.add_inequality({{0, 1.0}}, 2.0);
  b.add_inequality({{0, -1.0}}, 0.0);
  const SolveResult r = IpmSolver().solve(b.build());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

/// Random bounded-feasible LPs: min c'x s.t. Ax <= b with a known interior
/// point and box bounds, solved by both backends.
class IpmVsSimplex : public ::testing::TestWithParam<int> {};

TEST_P(IpmVsSimplex, AgreeOnRandomLps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 10; ++trial) {
    const auto n = static_cast<std::size_t>(rng.next_int(1, 6));
    const auto m = static_cast<std::size_t>(rng.next_int(1, 8));

    linalg::DenseMatrix a_dense(m + 2 * n, n);
    linalg::Vector b_vec(m + 2 * n, 0.0);
    // Random rows through a known interior point x0 with positive slack.
    linalg::Vector x0(n);
    for (auto& v : x0) v = rng.next_real(-1.0, 1.0);
    for (std::size_t i = 0; i < m; ++i) {
      double ax = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        a_dense(i, j) = rng.next_real(-1.0, 1.0);
        ax += a_dense(i, j) * x0[j];
      }
      b_vec[i] = ax + rng.next_real(0.1, 2.0);
    }
    // Box: -5 <= x <= 5 keeps the LP bounded.
    for (std::size_t j = 0; j < n; ++j) {
      a_dense(m + 2 * j, j) = 1.0;
      b_vec[m + 2 * j] = 5.0;
      a_dense(m + 2 * j + 1, j) = -1.0;
      b_vec[m + 2 * j + 1] = 5.0;
    }
    linalg::Vector c(n);
    for (auto& v : c) v = rng.next_real(-1.0, 1.0);

    const LpResult sx = solve_lp_simplex(c, a_dense, b_vec);
    ASSERT_EQ(sx.status, SolveStatus::kOptimal);

    ConicProblemBuilder builder(static_cast<linalg::Index>(n));
    for (std::size_t j = 0; j < n; ++j)
      builder.set_objective(static_cast<linalg::Index>(j), c[j]);
    for (std::size_t i = 0; i < m + 2 * n; ++i) {
      std::vector<std::pair<linalg::Index, double>> terms;
      for (std::size_t j = 0; j < n; ++j) {
        if (a_dense(i, j) != 0.0) {
          terms.emplace_back(static_cast<linalg::Index>(j), a_dense(i, j));
        }
      }
      builder.add_inequality(terms, b_vec[i]);
    }
    const SolveResult ipm = IpmSolver().solve(builder.build());
    ASSERT_EQ(ipm.status, SolveStatus::kOptimal)
        << "trial " << trial << " n=" << n << " m=" << m;
    EXPECT_NEAR(ipm.primal_objective, sx.objective,
                1e-5 * (1.0 + std::abs(sx.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpmVsSimplex, ::testing::Range(0, 8));

TEST(IpmLp, SolutionIsFeasibleAndComplementary) {
  ConicProblemBuilder b(2);
  b.set_objective(0, 1.0);
  b.set_objective(1, 2.0);
  b.add_inequality({{0, -1.0}, {1, -1.0}}, -1.0);  // x0 + x1 >= 1
  b.add_inequality({{0, -1.0}}, 0.0);
  b.add_inequality({{1, -1.0}}, 0.0);
  const ConicProblem p = b.build();
  const SolveResult r = IpmSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);  // cheaper variable used
  EXPECT_NEAR(r.x[1], 0.0, 1e-6);
  EXPECT_LT(p.primal_residual(r.x, r.s), 1e-6);
  EXPECT_LT(p.dual_residual(r.z), 1e-6);
  // Complementary slackness s'z ~ 0 and duality gap ~ 0.
  EXPECT_LT(linalg::dot(r.s, r.z), 1e-5);
  EXPECT_NEAR(r.primal_objective, r.dual_objective, 1e-5);
}

}  // namespace
}  // namespace bbs::solver
