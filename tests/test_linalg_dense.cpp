// Tests for dense vectors, matrices and the dense LDL^T factorisation.
#include <gtest/gtest.h>

#include <cmath>

#include "bbs/common/assert.hpp"
#include "bbs/common/rng.hpp"
#include "testing/dense_cholesky.hpp"
#include "bbs/linalg/dense_matrix.hpp"

namespace bbs::linalg {
namespace {

TEST(VectorOps, AxpyDotNorm) {
  Vector x{1.0, 2.0, -3.0};
  Vector y{0.5, 0.0, 1.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
  EXPECT_DOUBLE_EQ(y[2], -5.0);
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf({-7.0, 2.0}), 7.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  Vector a{1.0};
  Vector b{1.0, 2.0};
  EXPECT_THROW(dot(a, b), ContractViolation);
  EXPECT_THROW(axpy(1.0, a, b), ContractViolation);
}

TEST(DenseMatrix, MultiplyAndTranspose) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector ones3{1.0, 1.0, 1.0};
  const Vector y = a.multiply(ones3);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const Vector ones2{1.0, 1.0};
  const Vector yt = a.multiply_transpose(ones2);
  EXPECT_DOUBLE_EQ(yt[0], 5.0);
  EXPECT_DOUBLE_EQ(yt[1], 7.0);
  EXPECT_DOUBLE_EQ(yt[2], 9.0);

  const DenseMatrix at = a.transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_EQ(at.cols(), 2u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
}

TEST(DenseMatrix, MatrixProductAgainstHandComputation) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  DenseMatrix b(2, 2);
  b(0, 0) = 0;
  b(0, 1) = 1;
  b(1, 0) = 1;
  b(1, 1) = 0;
  const DenseMatrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(DenseMatrix, IdentityAndFrobenius) {
  const DenseMatrix i3 = DenseMatrix::identity(3);
  EXPECT_DOUBLE_EQ(i3.frobenius_norm(), std::sqrt(3.0));
}

TEST(DenseLdlt, SolvesSpdSystem) {
  // A = [4 2; 2 3], b = [2; 5] -> x = [-0.5; 2].
  DenseMatrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  const Vector x = solve_spd(a, {2.0, 5.0});
  EXPECT_NEAR(x[0], -0.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseLdlt, RandomSpdRoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.next_int(1, 12));
    DenseMatrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        b(i, j) = rng.next_real(-1.0, 1.0);
    // A = B B' + n*I is SPD.
    DenseMatrix a = b.multiply(b.transpose());
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);

    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.next_real(-2.0, 2.0);
    const Vector rhs = a.multiply(x_true);
    const Vector x = solve_spd(a, rhs);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(DenseLdlt, QuasiDefiniteHasCorrectInertia) {
  // [[2, 1], [1, -1]] is quasi-definite after regularisation: one positive
  // and one negative pivot.
  DenseMatrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = -1;
  DenseLdlt f(a);
  EXPECT_EQ(f.sign_of_determinant(), -1);
}

TEST(DenseLdlt, SingularMatrixThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 1;
  EXPECT_THROW(DenseLdlt{a}, NumericalError);
}

TEST(DenseLdlt, RejectsNonSquare) {
  DenseMatrix a(2, 3);
  EXPECT_THROW(DenseLdlt{a}, ContractViolation);
}

}  // namespace
}  // namespace bbs::linalg
