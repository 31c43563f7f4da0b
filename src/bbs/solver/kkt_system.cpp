#include "bbs/solver/kkt_system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bbs/common/assert.hpp"
#include "bbs/common/hash.hpp"

namespace bbs::solver {
namespace {

/// Fingerprint of a sparsity pattern (dimension + column pointers + row
/// indices; values excluded). Stable across processes — used to match a
/// cached SymbolicAnalysis against the live normal-equation pattern.
std::uint64_t pattern_hash_of(const linalg::SparseMatrix& a) {
  std::uint64_t hash = common::kFnv1a64Offset;
  const auto n = static_cast<std::uint64_t>(a.cols());
  hash = common::fnv1a_64(&n, sizeof(n), hash);
  hash = common::fnv1a_64_values(a.col_ptr(), hash);
  hash = common::fnv1a_64_values(a.row_ind(), hash);
  return hash;
}

bool is_valid_permutation(const std::vector<linalg::Index>& perm,
                          linalg::Index n) {
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (const linalg::Index p : perm) {
    if (p < 0 || p >= n || seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = true;
  }
  return true;
}

}  // namespace

KktSystem::KktSystem(const linalg::SparseMatrix& g)
    : KktSystem(g, Options{}) {}

KktSystem::KktSystem(const linalg::SparseMatrix& g, const Options& options)
    : g_(g), gt_(g.transpose()), options_(options) {}

void KktSystem::update_matrix_values(const linalg::SparseMatrix& g) {
  BBS_REQUIRE(g.rows() == g_.rows() && g.cols() == g_.cols() &&
                  g.col_ptr() == g_.col_ptr() && g.row_ind() == g_.row_ind(),
              "KktSystem::update_matrix_values: pattern mismatch");
  if (gt_slot_of_g_slot_.empty() && g_.nnz() > 0) {
    // Iterating G column by column visits the entries of each row — i.e.
    // each column of G' — in ascending column order, which is exactly the
    // storage order of gt_: one running cursor per gt_ column recovers the
    // slot mapping.
    std::vector<Index> cursor(gt_.col_ptr().begin(), gt_.col_ptr().end() - 1);
    gt_slot_of_g_slot_.resize(static_cast<std::size_t>(g_.nnz()));
    for (Index c = 0; c < g_.cols(); ++c) {
      for (Index k = g_.col_ptr()[static_cast<std::size_t>(c)];
           k < g_.col_ptr()[static_cast<std::size_t>(c) + 1]; ++k) {
        const auto r = static_cast<std::size_t>(g_.row_ind()[k]);
        gt_slot_of_g_slot_[static_cast<std::size_t>(k)] = cursor[r]++;
      }
    }
  }
  std::copy(g.values().begin(), g.values().end(), g_.values().begin());
  for (std::size_t k = 0; k < gt_slot_of_g_slot_.size(); ++k) {
    gt_.values()[static_cast<std::size_t>(gt_slot_of_g_slot_[k])] =
        g_.values()[k];
  }
}

void KktSystem::factorise(const NtScaling& scaling) {
  scaling.inverse_squared_into(s_);

  const bool first = (factor_ == nullptr);
  if (first) {
    // One-time symbolic work: output patterns of S·G and G'·(S·G). The
    // diagonal is forced into the normal pattern so the regularisation term
    // below never changes the structure.
    sg_ = linalg::CachedSpGemm(s_, g_);
    normal_ = linalg::CachedSpGemm(gt_, sg_.result(),
                                   /*include_diagonal=*/true);
    regularised_ = normal_.result();
    diag_pos_.assign(static_cast<std::size_t>(regularised_.cols()), -1);
    for (Index c = 0; c < regularised_.cols(); ++c) {
      for (Index k = regularised_.col_ptr()[c];
           k < regularised_.col_ptr()[c + 1]; ++k) {
        if (regularised_.row_ind()[k] == c) {
          diag_pos_[static_cast<std::size_t>(c)] = k;
          break;
        }
      }
      BBS_ASSERT_MSG(diag_pos_[static_cast<std::size_t>(c)] >= 0,
                     "normal-equation diagonal entry missing");
    }
  } else {
    sg_.multiply(s_, g_);
    normal_.multiply(gt_, sg_.result());
  }

  // Largest diagonal magnitude for relative regularisation.
  const std::vector<double>& nv = normal_.result().values();
  double max_diag = 0.0;
  for (const Index p : diag_pos_) {
    max_diag = std::max(max_diag, std::abs(nv[static_cast<std::size_t>(p)]));
  }
  const double reg =
      options_.static_regularisation * std::max(1.0, max_diag);

  std::copy(nv.begin(), nv.end(), regularised_.values().begin());
  for (const Index p : diag_pos_) {
    regularised_.values()[static_cast<std::size_t>(p)] += reg;
  }

  if (first) {
    linalg::SparseLdlt::Options fopts;
    fopts.ordering = options_.ordering;
    fopts.allow_indefinite = false;  // normal equations must be SPD
    // A cached analysis, if one was seeded and matches the live pattern,
    // replaces the fill-reducing ordering computation — the dominant
    // symbolic cost. Any valid permutation yields a correct factor, so a
    // stale hint can at worst degrade fill, never correctness; the pattern
    // hash rejects that case up front.
    std::unique_ptr<SymbolicAnalysis> seed = std::move(pending_symbolic_);
    bool seeded = false;
    if (seed != nullptr && cached_permutation_.empty()) {
      if (seed->dim == regularised_.cols() &&
          seed->pattern_hash == pattern_hash_of(regularised_) &&
          is_valid_permutation(seed->permutation, regularised_.cols())) {
        cached_permutation_ = seed->permutation;
        seeded = true;
      } else {
        ++stats_.symbolic_seed_rejects;
      }
    }
    if (cached_permutation_.empty()) {
      cached_permutation_ = linalg::compute_ordering(regularised_,
                                                     options_.ordering);
    }
    fopts.fixed_permutation = &cached_permutation_;
    factor_ = std::make_unique<linalg::SparseLdlt>(regularised_, fopts);
    if (seeded) {
      // The constructor re-derived the elimination tree and factor column
      // pointers from the seeded permutation (cheap, O(nnz)); disagreement
      // with the cached copies means the entry was stale after all.
      if (factor_->etree_parent() == seed->etree_parent &&
          factor_->factor_col_ptr() == seed->factor_col_ptr) {
        ++stats_.symbolic_loads;
      } else {
        ++stats_.symbolic_seed_rejects;
        ++stats_.symbolic_factorisations;
      }
    } else {
      ++stats_.symbolic_factorisations;
    }
  } else {
    factor_->refactor(regularised_);
  }
  ++stats_.factorise_calls;
}

void KktSystem::seed_symbolic(SymbolicAnalysis analysis) {
  if (factor_ != nullptr) return;  // symbolic phase already done
  pending_symbolic_ = std::make_unique<SymbolicAnalysis>(std::move(analysis));
}

std::optional<SymbolicAnalysis> KktSystem::export_symbolic() const {
  if (factor_ == nullptr) return std::nullopt;
  SymbolicAnalysis analysis;
  analysis.dim = regularised_.cols();
  analysis.pattern_hash = pattern_hash_of(regularised_);
  analysis.permutation = cached_permutation_;
  analysis.etree_parent = factor_->etree_parent();
  analysis.factor_col_ptr = factor_->factor_col_ptr();
  return analysis;
}

void KktSystem::solve_once(const NtScaling& scaling, const Vector& p,
                           const Vector& q, Vector& u, Vector& v) const {
  // rhs = p + G' W^{-2} q.
  scaling.apply_w_inv_into(q, work_tmp_m_);
  scaling.apply_w_inv_into(work_tmp_m_, work_w2q_);
  work_rhs_ = p;
  g_.gaxpy_transpose(1.0, work_w2q_, work_rhs_);

  // u = (G' W^{-2} G)^{-1} rhs with refinement against the unregularised
  // normal matrix.
  factor_->solve_refined_into(normal_.result(), work_rhs_,
                              options_.refine_steps, u);

  // v = W^{-2} (G u - q).
  work_gu_.resize(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) work_gu_[i] = -q[i];
  g_.gaxpy(1.0, u, work_gu_);
  scaling.apply_w_inv_into(work_gu_, work_tmp_m_);
  scaling.apply_w_inv_into(work_tmp_m_, v);
}

void KktSystem::solve(const NtScaling& scaling, const Vector& p,
                      const Vector& q, Vector& u, Vector& v) const {
  BBS_REQUIRE(factor_ != nullptr, "KktSystem::solve before factorise");
  BBS_REQUIRE(p.size() == static_cast<std::size_t>(g_.cols()),
              "KktSystem::solve: p size mismatch");
  BBS_REQUIRE(q.size() == static_cast<std::size_t>(g_.rows()),
              "KktSystem::solve: q size mismatch");

  solve_once(scaling, p, q, u, v);

  // One round of refinement on the full 2x2 system
  //     G'v = p ;  G u - W^2 v = q.
  // The normal-equation reduction squares the conditioning of W, so the
  // first solution degrades as the interior-point method approaches the
  // boundary; one round against the same factorisation restores the
  // direction accuracy. r1 = p - G'v ; r2 = q - G u + W^2 v.
  work_r1_ = p;
  g_.gaxpy_transpose(-1.0, v, work_r1_);
  scaling.apply_w_into(v, work_tmp_m_);
  scaling.apply_w_into(work_tmp_m_, work_w2v_);
  work_r2_.resize(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) work_r2_[i] = q[i] + work_w2v_[i];
  g_.gaxpy(-1.0, u, work_r2_);

  const double err =
      std::max(linalg::norm_inf(work_r1_), linalg::norm_inf(work_r2_));
  if (err < 1e-14) return;
  solve_once(scaling, work_r1_, work_r2_, work_du_, work_dv_);
  linalg::axpy(1.0, work_du_, u);
  linalg::axpy(1.0, work_dv_, v);
}

Index KktSystem::factor_nnz() const {
  return factor_ ? factor_->factor_nnz() : 0;
}

}  // namespace bbs::solver
