// Dense two-phase primal simplex for linear programs
//
//     minimise   c' x
//     subject to A x <= b          (x free)
//
// Test oracle only (not part of the library). It exists to cross-validate
// the interior-point method: every LP in the test suite is solved by two
// completely independent algorithms.
//
// The implementation is a classic dense tableau with Bland's anti-cycling
// rule; free variables are handled by the x = x+ - x- split. It is intended
// for the moderate problem sizes of the test suite, not for the large
// generated instances (use IpmSolver there).
#pragma once

#include "bbs/linalg/dense_matrix.hpp"
#include "bbs/solver/ipm_solver.hpp"

namespace bbs::solver {

struct LpResult {
  SolveStatus status = SolveStatus::kNumericalFailure;
  Vector x;
  double objective = 0.0;
};

LpResult solve_lp_simplex(const Vector& c, const linalg::DenseMatrix& a,
                          const Vector& b, int max_pivots = 100000);

}  // namespace bbs::solver
