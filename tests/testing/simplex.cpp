#include "testing/simplex.hpp"

#include <cmath>
#include <limits>

#include "bbs/common/assert.hpp"

namespace bbs::solver {

namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau on equality form  B x = rhs, x >= 0.
/// Columns: structural variables first, then artificials.
class Tableau {
 public:
  Tableau(linalg::DenseMatrix a, Vector rhs)
      : a_(std::move(a)), rhs_(std::move(rhs)),
        basis_(a_.rows(), 0) {}

  std::size_t rows() const { return a_.rows(); }
  std::size_t cols() const { return a_.cols(); }

  linalg::DenseMatrix& a() { return a_; }
  Vector& rhs() { return rhs_; }
  std::vector<std::size_t>& basis() { return basis_; }

  /// Runs the simplex method on reduced costs of `cost`, mutating the
  /// tableau. Returns false if the LP is unbounded in this phase.
  bool iterate(const Vector& cost, int& pivot_budget) {
    const std::size_t m = rows();
    const std::size_t n = cols();
    // Basic solution is kept feasible: rhs_ >= 0 throughout.
    while (pivot_budget-- > 0) {
      // Duals y' = c_B' B^{-1} are implicit: the tableau is kept in
      // canonical form, so the reduced cost of column j is
      // cost_j - sum_i cost_basis(i) * a(i, j).
      std::size_t enter = n;
      for (std::size_t j = 0; j < n; ++j) {  // Bland: smallest index
        double red = cost[j];
        for (std::size_t i = 0; i < m; ++i) red -= cost[basis_[i]] * a_(i, j);
        if (red < -kEps) {
          enter = j;
          break;
        }
      }
      if (enter == n) return true;  // optimal

      // Ratio test (Bland: smallest basis index among ties).
      std::size_t leave = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < m; ++i) {
        if (a_(i, enter) > kEps) {
          const double ratio = rhs_[i] / a_(i, enter);
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leave == m || basis_[i] < basis_[leave]))) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == m) return false;  // unbounded direction

      pivot(leave, enter);
    }
    throw NumericalError("simplex: pivot budget exhausted (cycling?)");
  }

  Vector basic_solution() const {
    Vector x(cols(), 0.0);
    for (std::size_t i = 0; i < rows(); ++i) x[basis_[i]] = rhs_[i];
    return x;
  }

 private:
  void pivot(std::size_t row, std::size_t col) {
    const double p = a_(row, col);
    BBS_ASSERT_MSG(std::abs(p) > kEps, "simplex pivot too small");
    const std::size_t n = cols();
    for (std::size_t j = 0; j < n; ++j) a_(row, j) /= p;
    rhs_[row] /= p;
    for (std::size_t i = 0; i < rows(); ++i) {
      if (i == row) continue;
      const double f = a_(i, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) a_(i, j) -= f * a_(row, j);
      rhs_[i] -= f * rhs_[row];
      if (std::abs(rhs_[i]) < 1e-12) rhs_[i] = 0.0;
    }
    basis_[row] = col;
  }

  linalg::DenseMatrix a_;
  Vector rhs_;
  std::vector<std::size_t> basis_;
};

}  // namespace

LpResult solve_lp_simplex(const Vector& c, const linalg::DenseMatrix& a,
                          const Vector& b, int max_pivots) {
  BBS_REQUIRE(a.rows() == b.size() && a.cols() == c.size(),
              "solve_lp_simplex: dimension mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Equality form: A x+ - A x- + I slack = b, everything >= 0, with rows
  // flipped so rhs >= 0. Artificial variables are added for flipped rows
  // (whose slack coefficient becomes -1).
  std::vector<int> flip(m, 1);
  std::size_t num_artificial = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (b[i] < 0.0) {
      flip[i] = -1;
      ++num_artificial;
    }
  }

  const std::size_t cols = 2 * n + m + num_artificial;
  linalg::DenseMatrix tab(m, cols);
  Vector rhs(m);
  std::size_t next_artificial = 2 * n + m;
  std::vector<std::size_t> initial_basis(m);

  for (std::size_t i = 0; i < m; ++i) {
    const double f = static_cast<double>(flip[i]);
    for (std::size_t j = 0; j < n; ++j) {
      tab(i, j) = f * a(i, j);
      tab(i, n + j) = -f * a(i, j);
    }
    tab(i, 2 * n + i) = f;  // slack (+1 or -1 after flipping)
    rhs[i] = f * b[i];
    if (flip[i] < 0) {
      tab(i, next_artificial) = 1.0;
      initial_basis[i] = next_artificial++;
    } else {
      initial_basis[i] = 2 * n + i;
    }
  }

  Tableau t(std::move(tab), std::move(rhs));
  t.basis() = initial_basis;
  int budget = max_pivots;

  LpResult result;
  if (num_artificial > 0) {
    // Phase 1: minimise the sum of artificials.
    Vector phase1_cost(cols, 0.0);
    for (std::size_t j = 2 * n + m; j < cols; ++j) phase1_cost[j] = 1.0;
    if (!t.iterate(phase1_cost, budget)) {
      result.status = SolveStatus::kNumericalFailure;  // cannot happen: bounded
      return result;
    }
    const Vector x1 = t.basic_solution();
    double art_sum = 0.0;
    for (std::size_t j = 2 * n + m; j < cols; ++j) art_sum += x1[j];
    if (art_sum > 1e-7) {
      result.status = SolveStatus::kPrimalInfeasible;
      return result;
    }
  }

  // Phase 2: original objective on the split variables.
  Vector phase2_cost(cols, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    phase2_cost[j] = c[j];
    phase2_cost[n + j] = -c[j];
  }
  // Forbid artificials from re-entering.
  for (std::size_t j = 2 * n + m; j < cols; ++j) phase2_cost[j] = 1e12;

  if (!t.iterate(phase2_cost, budget)) {
    result.status = SolveStatus::kDualInfeasible;  // unbounded below
    return result;
  }

  const Vector xs = t.basic_solution();
  result.x.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) result.x[j] = xs[j] - xs[n + j];
  result.objective = linalg::dot(c, result.x);
  result.status = SolveStatus::kOptimal;
  return result;
}

}  // namespace bbs::solver
