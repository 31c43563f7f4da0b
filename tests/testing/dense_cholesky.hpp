// Dense LDL^T factorisation of symmetric positive-definite (or, with
// regularisation, quasi-definite) matrices.
//
// Test oracle only (not part of the library): the sparse LDL^T kernels and
// the KKT path are compared against this straightforward dense reference.
#pragma once

#include "bbs/linalg/dense_matrix.hpp"

namespace bbs::linalg {

/// LDL^T factorisation without pivoting. Suitable for SPD matrices and for
/// symmetric quasi-definite matrices (which are strongly factorisable).
class DenseLdlt {
 public:
  /// Factorises A (symmetric; only the lower triangle is read).
  /// Throws NumericalError if a pivot collapses below `min_pivot` in
  /// magnitude.
  explicit DenseLdlt(const DenseMatrix& a, double min_pivot = 1e-13);

  /// Solves A x = b in place.
  void solve(Vector& b) const;

  std::size_t dim() const { return n_; }

  /// Product of pivot signs; +1 for SPD inputs.
  int sign_of_determinant() const;

 private:
  std::size_t n_ = 0;
  DenseMatrix l_;   // unit lower-triangular factor
  Vector d_;        // diagonal of D
};

/// Convenience: solves the SPD system A x = b, returning x.
Vector solve_spd(const DenseMatrix& a, const Vector& b);

}  // namespace bbs::linalg
