#include "testing/dense_cholesky.hpp"

#include <cmath>

#include "bbs/common/assert.hpp"

namespace bbs::linalg {

DenseLdlt::DenseLdlt(const DenseMatrix& a, double min_pivot)
    : n_(a.rows()), l_(a.rows(), a.rows()), d_(a.rows(), 0.0) {
  BBS_REQUIRE(a.rows() == a.cols(), "DenseLdlt: matrix must be square");
  // Right-looking LDL^T; only the lower triangle of `a` is referenced.
  for (std::size_t j = 0; j < n_; ++j) {
    double dj = a(j, j);
    for (std::size_t k = 0; k < j; ++k) dj -= l_(j, k) * l_(j, k) * d_[k];
    if (std::abs(dj) < min_pivot) {
      throw NumericalError("DenseLdlt: pivot " + std::to_string(j) +
                           " below minimum magnitude");
    }
    d_[j] = dj;
    l_(j, j) = 1.0;
    for (std::size_t i = j + 1; i < n_; ++i) {
      double lij = a(i, j);
      for (std::size_t k = 0; k < j; ++k) lij -= l_(i, k) * l_(j, k) * d_[k];
      l_(i, j) = lij / dj;
    }
  }
}

void DenseLdlt::solve(Vector& b) const {
  BBS_REQUIRE(b.size() == n_, "DenseLdlt::solve: size mismatch");
  // Forward substitution with unit lower triangle.
  for (std::size_t i = 0; i < n_; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * b[k];
    b[i] = s;
  }
  // Diagonal.
  for (std::size_t i = 0; i < n_; ++i) b[i] /= d_[i];
  // Backward substitution with L'.
  for (std::size_t ii = n_; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = b[i];
    for (std::size_t k = i + 1; k < n_; ++k) s -= l_(k, i) * b[k];
    b[i] = s;
  }
}

int DenseLdlt::sign_of_determinant() const {
  int sign = 1;
  for (double d : d_) sign *= (d < 0.0) ? -1 : 1;
  return sign;
}

Vector solve_spd(const DenseMatrix& a, const Vector& b) {
  DenseLdlt f(a);
  Vector x = b;
  f.solve(x);
  return x;
}

}  // namespace bbs::linalg
