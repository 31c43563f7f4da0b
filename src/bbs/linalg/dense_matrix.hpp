// Dense linear algebra: the BLAS-1 vector operations of the interior-point
// method, and the small dense matrices of the NT scaling and of the test
// oracles (dense LDL^T, simplex) the sparse kernels are validated against.
//
// Vectors are plain std::vector<double>; free functions provide the BLAS-1
// operations the solvers need. DenseMatrix is a row-major value type.
#pragma once

#include <cstddef>
#include <vector>

namespace bbs::linalg {

using Vector = std::vector<double>;

/// y += alpha * x (sizes must match).
void axpy(double alpha, const Vector& x, Vector& y);

/// Dot product (sizes must match).
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

/// Infinity norm.
double norm_inf(const Vector& v);

/// x *= alpha.
void scale(Vector& v, double alpha);

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// y = A x.
  Vector multiply(const Vector& x) const;

  /// y = A' x.
  Vector multiply_transpose(const Vector& x) const;

  /// C = A B.
  DenseMatrix multiply(const DenseMatrix& other) const;

  /// A'.
  DenseMatrix transpose() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Raw storage (row-major), exposed for the factorisations.
  Vector& data() { return data_; }
  const Vector& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vector data_;
};

}  // namespace bbs::linalg
