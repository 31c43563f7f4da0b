// Tests for sparse matrices and the sparse LDL^T factorisation, including
// randomised cross-checks against the dense reference implementations.
#include <gtest/gtest.h>

#include <cmath>

#include "bbs/common/assert.hpp"
#include "bbs/common/rng.hpp"
#include "testing/dense_cholesky.hpp"
#include "bbs/linalg/sparse_ldlt.hpp"
#include "bbs/linalg/sparse_matrix.hpp"

namespace bbs::linalg {
namespace {

SparseMatrix small_matrix() {
  // [1 0 2]
  // [0 3 0]
  // [4 0 5]
  TripletList t(3, 3);
  t.add(0, 0, 1.0);
  t.add(0, 2, 2.0);
  t.add(1, 1, 3.0);
  t.add(2, 0, 4.0);
  t.add(2, 2, 5.0);
  return SparseMatrix::from_triplets(t);
}

TEST(SparseMatrix, TripletCompressionSumsDuplicates) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.5);
  t.add(1, 1, -1.0);
  const SparseMatrix m = SparseMatrix::from_triplets(t);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.to_dense()(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.to_dense()(1, 1), -1.0);
}

TEST(SparseMatrix, ColumnsSortedAfterCompression) {
  TripletList t(4, 1);
  t.add(3, 0, 1.0);
  t.add(0, 0, 2.0);
  t.add(2, 0, 3.0);
  const SparseMatrix m = SparseMatrix::from_triplets(t);
  ASSERT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_ind()[0], 0);
  EXPECT_EQ(m.row_ind()[1], 2);
  EXPECT_EQ(m.row_ind()[2], 3);
}

TEST(SparseMatrix, OutOfRangeTripletThrows) {
  TripletList t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), ContractViolation);
  EXPECT_THROW(t.add(0, -1, 1.0), ContractViolation);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  const SparseMatrix m = small_matrix();
  const Vector x{1.0, 2.0, 3.0};
  const Vector y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 19.0);
  const Vector yt = m.multiply_transpose(x);
  EXPECT_DOUBLE_EQ(yt[0], 13.0);
  EXPECT_DOUBLE_EQ(yt[1], 6.0);
  EXPECT_DOUBLE_EQ(yt[2], 17.0);
}

TEST(SparseMatrix, TransposeRoundTrip) {
  const SparseMatrix m = small_matrix();
  const SparseMatrix mtt = m.transpose().transpose();
  const DenseMatrix a = m.to_dense();
  const DenseMatrix b = mtt.to_dense();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(a(i, j), b(i, j));
}

TEST(SparseMatrix, RandomSpGemmMatchesDense) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const Index m = static_cast<Index>(rng.next_int(1, 10));
    const Index k = static_cast<Index>(rng.next_int(1, 10));
    const Index n = static_cast<Index>(rng.next_int(1, 10));
    TripletList ta(m, k);
    TripletList tb(k, n);
    for (int e = 0; e < 25; ++e) {
      ta.add(static_cast<Index>(rng.next_int(0, m - 1)),
             static_cast<Index>(rng.next_int(0, k - 1)),
             rng.next_real(-2.0, 2.0));
      tb.add(static_cast<Index>(rng.next_int(0, k - 1)),
             static_cast<Index>(rng.next_int(0, n - 1)),
             rng.next_real(-2.0, 2.0));
    }
    const SparseMatrix a = SparseMatrix::from_triplets(ta);
    const SparseMatrix b = SparseMatrix::from_triplets(tb);
    const DenseMatrix ref = a.to_dense().multiply(b.to_dense());
    const DenseMatrix got = a.multiply(b).to_dense();
    for (std::size_t i = 0; i < static_cast<std::size_t>(m); ++i) {
      for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
        EXPECT_NEAR(got(i, j), ref(i, j), 1e-12);
      }
    }
  }
}

TEST(SparseMatrix, PermuteSymmetric) {
  // Symmetric matrix with distinct entries; permuting twice with p and its
  // inverse must give the original back.
  TripletList t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 2.0);
  t.add(2, 2, 3.0);
  t.add(0, 1, 4.0);
  t.add(1, 0, 4.0);
  const SparseMatrix m = SparseMatrix::from_triplets(t);
  const std::vector<Index> perm{2, 0, 1};  // perm[new] = old
  const SparseMatrix p = m.permute_symmetric(perm);
  // New index of old 0 is 1: entry (0,0)=1 moves to (1,1).
  EXPECT_DOUBLE_EQ(p.to_dense()(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(p.to_dense()(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(p.to_dense()(1, 2), 4.0);
}

/// Random sparse SPD matrix as A = B B' + n I over a random sparse B.
SparseMatrix random_spd(Rng& rng, Index n, int extra_entries) {
  TripletList tb(n, n);
  for (Index i = 0; i < n; ++i) tb.add(i, i, rng.next_real(0.5, 2.0));
  for (int e = 0; e < extra_entries; ++e) {
    tb.add(static_cast<Index>(rng.next_int(0, n - 1)),
           static_cast<Index>(rng.next_int(0, n - 1)),
           rng.next_real(-1.0, 1.0));
  }
  const SparseMatrix b = SparseMatrix::from_triplets(tb);
  SparseMatrix a = b.multiply(b.transpose());
  TripletList ta(n, n);
  for (Index c = 0; c < n; ++c) {
    for (Index k = a.col_ptr()[c]; k < a.col_ptr()[c + 1]; ++k) {
      ta.add(a.row_ind()[k], c, a.values()[k]);
    }
    ta.add(c, c, static_cast<double>(n));
  }
  return SparseMatrix::from_triplets(ta);
}

class SparseLdltOrderings
    : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(SparseLdltOrderings, RandomSpdSolvesMatchDense) {
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    const Index n = static_cast<Index>(rng.next_int(2, 25));
    const SparseMatrix a = random_spd(rng, n, 3 * n);

    Vector x_true(static_cast<std::size_t>(n));
    for (auto& v : x_true) v = rng.next_real(-3.0, 3.0);
    Vector b = a.multiply(x_true);

    SparseLdlt::Options opts;
    opts.ordering = GetParam();
    SparseLdlt f(a, opts);
    f.solve(b);
    for (std::size_t i = 0; i < x_true.size(); ++i) {
      EXPECT_NEAR(b[i], x_true[i], 1e-8) << "ordering "
                                         << ordering_name(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, SparseLdltOrderings,
                         ::testing::Values(OrderingMethod::kNatural,
                                           OrderingMethod::kReverseCuthillMcKee,
                                           OrderingMethod::kMinimumDegree));

TEST(SparseLdlt, RefinementReducesResidual) {
  Rng rng(23);
  const Index n = 30;
  const SparseMatrix a = random_spd(rng, n, 60);
  Vector b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_real(-1.0, 1.0);

  SparseLdlt f(a);
  const Vector x = f.solve_refined(a, b, 3);
  Vector r = b;
  a.gaxpy(-1.0, x, r);
  EXPECT_LT(norm_inf(r), 1e-10);
}

TEST(SparseLdlt, IndefiniteDiagonalAllowedWhenRequested) {
  // diag(2, -3) is quasi-definite; LDL^T factors it without pivoting.
  TripletList t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 1, -3.0);
  const SparseMatrix a = SparseMatrix::from_triplets(t);
  SparseLdlt f(a);
  EXPECT_EQ(f.negative_pivots(), 1);

  SparseLdlt::Options opts;
  opts.allow_indefinite = false;
  EXPECT_THROW((SparseLdlt{a, opts}), NumericalError);
}

TEST(SparseLdlt, SingularThrows) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 1.0);
  const SparseMatrix a = SparseMatrix::from_triplets(t);
  EXPECT_THROW(SparseLdlt{a}, NumericalError);
}

TEST(SparseMatrix, CachedSpGemmMatchesFreshProduct) {
  Rng rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    const Index m = static_cast<Index>(rng.next_int(2, 10));
    const Index k = static_cast<Index>(rng.next_int(2, 10));
    const Index n = static_cast<Index>(rng.next_int(2, 10));
    TripletList ta(m, k);
    TripletList tb(k, n);
    for (int e = 0; e < 25; ++e) {
      ta.add(static_cast<Index>(rng.next_int(0, m - 1)),
             static_cast<Index>(rng.next_int(0, k - 1)),
             rng.next_real(-2.0, 2.0));
      tb.add(static_cast<Index>(rng.next_int(0, k - 1)),
             static_cast<Index>(rng.next_int(0, n - 1)),
             rng.next_real(-2.0, 2.0));
    }
    SparseMatrix a = SparseMatrix::from_triplets(ta);
    SparseMatrix b = SparseMatrix::from_triplets(tb);
    CachedSpGemm cached(a, b);

    // Change values (pattern untouched) and recompute in place: the result
    // must match a from-scratch product entry for entry.
    for (double& v : a.values()) v = rng.next_real(-2.0, 2.0);
    for (double& v : b.values()) v = rng.next_real(-2.0, 2.0);
    cached.multiply(a, b);
    const DenseMatrix ref = a.multiply(b).to_dense();
    const DenseMatrix got = cached.result().to_dense();
    for (std::size_t i = 0; i < static_cast<std::size_t>(m); ++i) {
      for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
        EXPECT_NEAR(got(i, j), ref(i, j), 1e-12);
      }
    }
  }
}

TEST(SparseMatrix, CachedSpGemmRejectsPatternChange) {
  const SparseMatrix a = small_matrix();
  CachedSpGemm cached(a, a);
  TripletList t(3, 3);
  t.add(0, 0, 1.0);  // fewer entries than small_matrix
  const SparseMatrix changed = SparseMatrix::from_triplets(t);
  EXPECT_THROW(cached.multiply(a, changed), ContractViolation);
  EXPECT_THROW(cached.multiply(changed, a), ContractViolation);

  // Same shape and nnz, different pattern: must also be rejected.
  TripletList t2(3, 3);
  t2.add(0, 1, 1.0);
  t2.add(1, 0, 1.0);
  t2.add(1, 1, 1.0);
  t2.add(1, 2, 1.0);
  t2.add(2, 1, 1.0);
  const SparseMatrix moved = SparseMatrix::from_triplets(t2);
  ASSERT_EQ(moved.nnz(), a.nnz());
  EXPECT_THROW(cached.multiply(a, moved), ContractViolation);
  EXPECT_THROW(cached.multiply(moved, a), ContractViolation);
}

TEST(SparseMatrix, CachedSpGemmIncludeDiagonalKeepsRegularisationSlots) {
  // Product with a structurally empty diagonal: include_diagonal must add
  // explicit zero slots there, so regularisation never changes the pattern.
  TripletList t(2, 2);
  t.add(1, 0, 1.0);
  t.add(0, 1, 1.0);
  const SparseMatrix offdiag = SparseMatrix::from_triplets(t);
  const SparseMatrix ident = SparseMatrix::identity(2);
  const CachedSpGemm without(offdiag, ident);
  EXPECT_EQ(without.result().nnz(), 2);
  const CachedSpGemm with(offdiag, ident, /*include_diagonal=*/true);
  EXPECT_EQ(with.result().nnz(), 4);
  EXPECT_DOUBLE_EQ(with.result().to_dense()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(with.result().to_dense()(0, 1), 1.0);
}

/// Same pattern as `a`, different values, still symmetric and SPD: scales
/// all entries and strengthens the diagonal.
SparseMatrix perturbed_spd(const SparseMatrix& a) {
  SparseMatrix b = a;
  for (double& v : b.values()) v *= 0.75;
  for (Index c = 0; c < b.cols(); ++c) {
    for (Index k = b.col_ptr()[c]; k < b.col_ptr()[c + 1]; ++k) {
      if (b.row_ind()[k] == c) b.values()[k] += 1.0 + 0.1 * c;
    }
  }
  return b;
}

TEST(SparseLdlt, RefactorMatchesFreshFactorisationBitExact) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const Index n = static_cast<Index>(rng.next_int(3, 25));
    const SparseMatrix a = random_spd(rng, n, 3 * n);
    SparseLdlt f(a);
    EXPECT_EQ(f.numeric_count(), 1);

    const SparseMatrix b = perturbed_spd(a);
    f.refactor(b);
    EXPECT_EQ(f.numeric_count(), 2);

    // A from-scratch factorisation of b under the same permutation must
    // produce bit-identical L and D.
    SparseLdlt::Options opts;
    opts.fixed_permutation = &f.permutation();
    const SparseLdlt fresh(b, opts);
    ASSERT_EQ(f.factor_col_ptr(), fresh.factor_col_ptr());
    ASSERT_EQ(f.factor_row_ind(), fresh.factor_row_ind());
    ASSERT_EQ(f.factor_values().size(), fresh.factor_values().size());
    for (std::size_t k = 0; k < f.factor_values().size(); ++k) {
      EXPECT_EQ(f.factor_values()[k], fresh.factor_values()[k]) << "k=" << k;
    }
    for (std::size_t k = 0; k < f.diagonal().size(); ++k) {
      EXPECT_EQ(f.diagonal()[k], fresh.diagonal()[k]) << "k=" << k;
    }
  }
}

TEST(SparseLdlt, RefactorSolvesTheNewMatrix) {
  Rng rng(43);
  const Index n = 20;
  const SparseMatrix a = random_spd(rng, n, 40);
  SparseLdlt f(a);
  const SparseMatrix b = perturbed_spd(a);
  f.refactor(b);

  Vector x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.next_real(-3.0, 3.0);
  Vector rhs = b.multiply(x_true);
  f.solve(rhs);
  for (std::size_t i = 0; i < x_true.size(); ++i) {
    EXPECT_NEAR(rhs[i], x_true[i], 1e-8);
  }
}

TEST(SparseLdlt, RefactorRejectsPatternChange) {
  Rng rng(47);
  const SparseMatrix a = random_spd(rng, 10, 20);
  SparseLdlt f(a);

  // Same dimension, different pattern: diagonal only.
  TripletList t(10, 10);
  for (Index i = 0; i < 10; ++i) t.add(i, i, 2.0);
  const SparseMatrix diag = SparseMatrix::from_triplets(t);
  EXPECT_THROW(f.refactor(diag), ContractViolation);

  // Different dimension.
  TripletList t2(11, 11);
  for (Index i = 0; i < 11; ++i) t2.add(i, i, 2.0);
  EXPECT_THROW(f.refactor(SparseMatrix::from_triplets(t2)),
               ContractViolation);

  // The failed calls must not have corrupted the factorisation.
  Vector x_true(10, 1.0);
  Vector rhs = a.multiply(x_true);
  f.solve(rhs);
  for (std::size_t i = 0; i < x_true.size(); ++i) {
    EXPECT_NEAR(rhs[i], x_true[i], 1e-8);
  }
}

TEST(SparseLdlt, RefactorAfterFailedNumericPassRecovers) {
  // A refactor attempt that dies on a small pivot must leave the workspaces
  // clean enough that a later refactor of a good matrix succeeds exactly.
  Rng rng(53);
  const Index n = 12;
  const SparseMatrix a = random_spd(rng, n, 24);
  SparseLdlt f(a);

  SparseMatrix singular = a;
  for (double& v : singular.values()) v = 0.0;
  EXPECT_THROW(f.refactor(singular), NumericalError);

  // The half-updated factor is poisoned: solving now must throw rather than
  // silently mix old and new columns.
  Vector rhs(static_cast<std::size_t>(n), 1.0);
  EXPECT_THROW(f.solve(rhs), ContractViolation);

  const SparseMatrix b = perturbed_spd(a);
  f.refactor(b);
  SparseLdlt::Options opts;
  opts.fixed_permutation = &f.permutation();
  const SparseLdlt fresh(b, opts);
  for (std::size_t k = 0; k < f.factor_values().size(); ++k) {
    EXPECT_EQ(f.factor_values()[k], fresh.factor_values()[k]);
  }
}

TEST(SparseLdlt, FactorNnzBoundedByDenseTriangle) {
  Rng rng(9);
  const Index n = 20;
  const SparseMatrix a = random_spd(rng, n, 40);
  SparseLdlt f(a);
  EXPECT_LE(f.factor_nnz(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace bbs::linalg
