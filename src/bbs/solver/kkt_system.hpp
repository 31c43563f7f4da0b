// Reduced KKT solve for the interior-point method.
//
// Each Newton step requires solutions (u, v) of
//
//     G' v           = p
//     G  u - W^2 v   = q
//
// which reduce to the normal equations
//
//     (G' W^{-2} G) u = p + G' W^{-2} q,      v = W^{-2} (G u - q).
//
// The normal-equation matrix is symmetric positive definite whenever G has
// full column rank. Its static regularisation stays at the scale of the
// small pivots (1e-15 of the largest diagonal entry): near convergence the
// diagonal spans many orders of magnitude, and a larger term swamps the
// pivots of weakly constrained columns. One round of refinement on the full
// 2x2 system restores the accuracy the reduction loses to W's conditioning.
//
// The sparsity pattern of G' W^{-2} G is identical on every interior-point
// iteration, so all symbolic work happens exactly once, on the first
// factorise() call: the cached-pattern products S·G and G'·(S·G), the
// fill-reducing ordering, and the LDL^T elimination-tree analysis. Every
// later factorise() updates values in place and runs a numeric-only
// refactorisation — no triplet assembly, no reallocation.
//
// Not reentrant: solve() is logically const but shares internal workspaces,
// so a KktSystem instance must not be used from multiple threads
// concurrently (distinct instances are independent).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "bbs/linalg/ordering.hpp"
#include "bbs/linalg/sparse_ldlt.hpp"
#include "bbs/linalg/sparse_matrix.hpp"
#include "bbs/solver/nt_scaling.hpp"

namespace bbs::solver {

/// The pure-in-the-structure result of the one-time symbolic analysis: the
/// fill-reducing permutation of the normal-equation matrix plus the derived
/// elimination tree and factor column pointers. `pattern_hash` fingerprints
/// the normal-equation sparsity pattern the analysis was computed for, so a
/// seeded KktSystem can reject a stale hint cheaply. Serialisable — this is
/// the payload of the persistent structure cache.
struct SymbolicAnalysis {
  linalg::Index dim = 0;
  std::uint64_t pattern_hash = 0;
  std::vector<linalg::Index> permutation;
  std::vector<linalg::Index> etree_parent;
  std::vector<linalg::Index> factor_col_ptr;
};

class KktSystem {
 public:
  struct Options {
    linalg::OrderingMethod ordering = linalg::OrderingMethod::kMinimumDegree;
    /// Static Tikhonov term added to the normal equations, relative to the
    /// largest diagonal entry (1e-12 already stalls feasible multi-graph
    /// solves short of the dual-residual tolerance).
    double static_regularisation = 1e-15;
    /// Rounds of iterative refinement of the normal-equation solve.
    int refine_steps = 1;
  };

  /// Counters exposing the symbolic-reuse invariant: after the first
  /// factorise() call, every later call is numeric-only.
  struct Stats {
    int factorise_calls = 0;
    /// Symbolic analyses performed (ordering + elimination tree + pattern
    /// caches). Stays at 1 across all interior-point iterations — and at 0
    /// when the analysis was seeded from a cached SymbolicAnalysis.
    int symbolic_factorisations = 0;
    /// Symbolic analyses loaded from a seeded SymbolicAnalysis instead of
    /// being derived (the fill-reducing ordering — the dominant symbolic
    /// cost — is skipped; the cheap elimination-tree rebuild doubles as
    /// verification of the cached entry).
    int symbolic_loads = 0;
    /// Seeds offered via seed_symbolic() that failed validation (dimension
    /// or pattern-hash mismatch, invalid permutation, or an etree/col-ptr
    /// disagreement) and fell back to a full derivation.
    int symbolic_seed_rejects = 0;
  };

  explicit KktSystem(const linalg::SparseMatrix& g);
  KktSystem(const linalg::SparseMatrix& g, const Options& options);

  /// Re-assembles and re-factorises the normal equations for a new scaling.
  /// The first call performs the symbolic analysis; later calls only update
  /// values in place. A NumericalError thrown here invalidates the previous
  /// factorisation (it is overwritten in place): solve() then throws until a
  /// later factorise() succeeds.
  void factorise(const NtScaling& scaling);

  /// Replaces the numeric values of G in place. `g` must carry exactly the
  /// sparsity pattern this system was built from (ContractViolation
  /// otherwise). All symbolic state — cached product patterns, ordering,
  /// elimination tree — stays valid, so repeated solves of a structurally
  /// identical problem with different coefficients (trade-off sweeps,
  /// binary searches) never re-run the symbolic analysis; the next
  /// factorise() call picks up the new values through the numeric-only
  /// path.
  void update_matrix_values(const linalg::SparseMatrix& g);

  /// Solves the 2x2 system above, refined once. `p` has num_vars entries,
  /// `q` has cone-dimension entries. Must be called after factorise().
  void solve(const NtScaling& scaling, const Vector& p, const Vector& q,
             Vector& u, Vector& v) const;

  /// Fill-in statistics of the last factorisation (for the ordering bench).
  Index factor_nnz() const;

  /// Offers a cached symbolic analysis for the first factorise() call. Must
  /// be called before the first factorise(); the hint is validated there
  /// (dimension, pattern hash, permutation) and silently discarded — with a
  /// symbolic_seed_rejects count — if it does not match the actual
  /// normal-equation pattern. A valid seed replaces the fill-reducing
  /// ordering computation; correctness never depends on the hint because any
  /// valid permutation yields a correct LDL^T (only fill quality varies).
  void seed_symbolic(SymbolicAnalysis analysis);

  /// Exports the symbolic analysis after the first factorise() (nullopt
  /// before it). The result is pure in the problem structure and safe to
  /// persist and re-seed into a future KktSystem for the same structure.
  std::optional<SymbolicAnalysis> export_symbolic() const;

  const Stats& stats() const { return stats_; }

 private:
  void solve_once(const NtScaling& scaling, const Vector& p, const Vector& q,
                  Vector& u, Vector& v) const;

  linalg::SparseMatrix g_;
  linalg::SparseMatrix gt_;
  /// Value slot in gt_ of each value slot of g_, for in-place transposed
  /// value updates (update_matrix_values).
  std::vector<Index> gt_slot_of_g_slot_;
  Options options_;
  linalg::SparseMatrix s_;            // W^{-2}, fixed full block pattern
  linalg::CachedSpGemm sg_;           // W^{-2} G
  linalg::CachedSpGemm normal_;       // G' (W^{-2} G), diagonal kept present
  linalg::SparseMatrix regularised_;  // normal + reg I (same pattern)
  std::vector<Index> diag_pos_;       // value index of each diagonal entry
  std::unique_ptr<linalg::SparseLdlt> factor_;
  /// Fill-reducing permutation, computed on the first factorisation and
  /// reused afterwards (the normal-equation pattern is iteration-invariant).
  std::vector<linalg::Index> cached_permutation_;
  /// Cached analysis offered via seed_symbolic(), consumed (validated or
  /// rejected) by the first factorise().
  std::unique_ptr<SymbolicAnalysis> pending_symbolic_;
  Stats stats_;
  // Solve workspaces, hoisted out of solve() (mutable: solve() is logically
  // const and runs several times per interior-point iteration).
  mutable Vector work_tmp_m_;
  mutable Vector work_w2q_;
  mutable Vector work_rhs_;
  mutable Vector work_gu_;
  mutable Vector work_r1_;
  mutable Vector work_r2_;
  mutable Vector work_du_;
  mutable Vector work_dv_;
  mutable Vector work_w2v_;
};

}  // namespace bbs::solver
