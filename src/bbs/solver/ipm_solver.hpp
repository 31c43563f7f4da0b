// Primal-dual interior-point method for cone programs (LP + second-order
// cones) in the homogeneous self-dual embedding, with Nesterov–Todd scaling
// and Mehrotra predictor-corrector steps.
//
// This is the replacement for the commercial SOCP solver (CPLEX) used in the
// paper: it solves exactly the problem class of Algorithm 1 with polynomial
// complexity and returns certificates of primal/dual infeasibility, which the
// budget/buffer trade-off sweeps rely on to find the feasibility frontier.
//
// The embedding solves, in variables (x, z, s, tau, kappa):
//
//     G' z + c tau          = 0
//     G x  - h tau + s      = 0
//     c' x + h' z  + kappa  = 0
//     s, z in K,  tau, kappa >= 0,
//
// whose strictly complementary solutions either recover an optimal
// primal-dual pair (tau > 0) or an infeasibility certificate (kappa > 0).
#pragma once

#include <memory>
#include <string>

#include "bbs/solver/cancel.hpp"
#include "bbs/solver/conic_problem.hpp"
#include "bbs/solver/kkt_system.hpp"

namespace bbs::solver {

enum class SolveStatus {
  kOptimal,
  kPrimalInfeasible,  ///< certificate: z in K, G'z = 0, h'z < 0
  kDualInfeasible,    ///< certificate: x with Gx + s = 0, s in K, c'x < 0
  kMaxIterations,
  kNumericalFailure,
  kTimedOut,   ///< SolveControl deadline or token deadline expired
  kCancelled,  ///< the solve's CancelToken was flipped mid-run
};

const char* to_string(SolveStatus status);

/// Observer interface for per-request solve introspection. The solver calls
/// it from inside the iteration loop (same thread as solve()); an
/// implementation must be cheap and must not re-enter the solver. Lives in
/// the solver layer so upper layers (telemetry) can implement it without the
/// solver depending on them.
class IpmTraceSink {
 public:
  virtual ~IpmTraceSink() = default;
  /// Once per IPM iteration, stamped at the convergence test: barrier
  /// parameter, normalised primal/dual residuals, and the step length
  /// *accepted on the previous iteration* (0 on the first — the current
  /// iteration's step is not known yet at test time).
  virtual void ipm_iteration(int iteration, double mu, double primal_residual,
                             double dual_residual, double step) = 0;
  /// Once per recovery-ladder rung (attempt >= 1).
  virtual void ipm_ladder_rung(int attempt) = 0;
};

struct SolverOptions {
  int max_iterations = 100;
  double feas_tol = 1e-6;
  double gap_tol = 1e-6;
  /// Stop when the best merit seen has not improved for this many
  /// iterations (the iterate has reached its numerical floor); the best
  /// iterate is returned, as optimal if it meets the tolerances.
  int stall_iterations = 15;
  /// Fraction of the step to the cone boundary actually taken.
  double step_fraction = 0.99;
  int refine_steps = 1;
  /// See KktSystem::Options.
  double static_regularisation = 1e-15;
  linalg::OrderingMethod ordering = linalg::OrderingMethod::kMinimumDegree;
  /// Ruiz equilibration rounds (0 disables scaling).
  int equilibrate_rounds = 3;
  /// Warm starting (workspace solves only): seed the embedding from the
  /// last optimal (x, s, z) the workspace reached, pushed back into the
  /// cone interior. Falls back to the cold start when no optimum is stored
  /// or the shifted point leaves the cone.
  bool warm_start = true;
  /// Minimal distance from the cone boundary of the warm-start point, in
  /// equilibrated units (the cold start is the cone identity, margin 1).
  /// The previous optimum sits on the boundary, where NT-scaled steps
  /// collapse; shifting it this far towards the identity trades a little
  /// optimality of the seed for full-length first steps. Values in
  /// [0.05, 0.5] behave almost identically on the paper's instances; 0.1
  /// measured best overall.
  double warm_start_margin = 0.1;
  /// 0 = silent, 1 = per-solve summary, 2 = per-iteration trace to stderr.
  int verbosity = 0;
  /// Numerical recovery ladder: on a kNumericalFailure exit, retry the
  /// solve up to this many times — attempt 1 drops the warm-start seed and
  /// restarts cold; attempts 2+ additionally re-run the Ruiz equilibration
  /// with extra rounds. The base equilibration is restored afterwards, so a
  /// recovered workspace behaves identically on the next solve; a ladder
  /// that reaches no optimum also puts the dropped seed back, so the next
  /// solve still starts warm. 0 disables the ladder — set that in tests
  /// that pin exact iteration or solve counts.
  int recovery_attempts = 2;
};

/// Per-execution control of a workspace solve: everything that belongs to
/// one request rather than to the problem structure. SolverOptions is
/// baked into pooled sessions and pool keys; this is passed per solve, so
/// one request's deadline, token or failpoint never leaks into the next.
struct SolveControl {
  /// Absolute steady-clock deadline shared by every solve run under this
  /// control — how a multi-solve request (sweep, bisection) spends one
  /// budget across its probes; time_point::max() disables. Combines with
  /// an armed token deadline (earliest wins). Checked once per iteration:
  /// expiry returns the best iterate seen with status kTimedOut (or
  /// kOptimal when it already meets the tolerances) instead of throwing.
  CancelToken::Clock::time_point deadline =
      CancelToken::Clock::time_point::max();
  /// Optional shared cancellation token, polled once per iteration (one
  /// relaxed atomic load). A flipped flag exits with kCancelled.
  std::shared_ptr<CancelToken> cancel;
  /// Fault injection: force a numerical-failure exit at this iteration
  /// (-1 = off). Exists for the chaos tests and failpoints.
  int fail_at_iteration = -1;
  /// Scope of the injected failure: when true, fail_at_iteration only fires
  /// on the *first* attempt of a solve, so the recovery ladder can be
  /// observed actually recovering (the `ipm.fail_once` failpoint); when
  /// false the fault re-fires on every retry and the ladder exhausts into a
  /// hard kNumericalFailure (the `ipm.fail_at` failpoint).
  bool fail_only_first_attempt = false;
  /// Optional trace sink for per-iteration and ladder events (request
  /// tracing). Not owned; must outlive the solve. nullptr emits nothing.
  IpmTraceSink* trace_sink = nullptr;
};

struct SolveResult {
  SolveStatus status = SolveStatus::kNumericalFailure;
  Vector x;  ///< primal solution (or dual-infeasibility certificate)
  Vector s;  ///< primal slacks
  Vector z;  ///< dual solution (or primal-infeasibility certificate)
  double primal_objective = 0.0;
  double dual_objective = 0.0;
  double duality_gap = 0.0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  int iterations = 0;
  double tau = 0.0;
  double kappa = 0.0;
  /// True iff this solve was seeded from a previous solution (workspace
  /// entry point with a stored optimal point).
  bool warm_started = false;
  /// Recovery-ladder attempts consumed after the initial solve failed
  /// numerically (0 = the first attempt's result stands).
  int recovery_attempts = 0;
  /// True iff the initial attempt failed numerically and a ladder retry
  /// then produced a usable answer (an optimum or an infeasibility
  /// certificate).
  bool recovered = false;

  bool is_optimal() const { return status == SolveStatus::kOptimal; }
};

/// Persistent state for repeated solves of *structurally identical* conic
/// problems (same G sparsity pattern, cone and dimensions; coefficient
/// values are free to change between solves — trade-off sweeps, binary
/// searches). Owns everything IpmSolver::solve would otherwise set up per
/// call: the KKT system with its one-time symbolic factorisation, the Ruiz
/// scaling buffers, the NT scaling, all iterate and direction vectors, and
/// the previous optimal solution used for warm starts. A default-constructed
/// workspace binds to the first problem it solves; reset() unbinds it.
/// Not thread-safe: one workspace serves one solve at a time.
class IpmWorkspace {
 public:
  IpmWorkspace() = default;

  /// Drops all cached state: the next solve re-runs the symbolic analysis,
  /// cold-starts, and may carry a different problem structure.
  void reset();

  /// The persistent KKT system (nullptr before the first solve). Its
  /// stats().symbolic_factorisations stays 1 across all solves of the
  /// workspace's lifetime — the reuse invariant sessions assert on.
  const KktSystem* kkt() const { return kkt_.get(); }

  int solves() const { return solves_; }
  /// Total interior-point iterations across all solves.
  long total_iterations() const { return total_iterations_; }
  /// How many solves were actually seeded from a previous solution.
  int warm_started_solves() const { return warm_started_solves_; }
  /// Solves whose initial attempt failed numerically but whose recovery
  /// ladder then produced a usable result (SolveResult::recovered).
  int recovered_solves() const { return recovered_solves_; }

  /// Offers a cached symbolic analysis (from the persistent structure
  /// cache) for the KKT system this workspace will create on its first
  /// solve. Ignored if the KKT system already exists; validated — and
  /// rejected without error — inside KktSystem if it does not match the
  /// actual normal-equation pattern.
  void seed_symbolic(SymbolicAnalysis analysis);
  /// Exports the KKT symbolic analysis after the first solve (nullopt
  /// before the workspace is bound).
  std::optional<SymbolicAnalysis> export_symbolic() const;

 private:
  friend class IpmSolver;

  bool bound_ = false;
  // Cone of the bound problem structure, owned by the workspace so the
  // persistent NtScaling (and any re-solve) never refers back into a
  // possibly destroyed ConicProblem. Heap-allocated for a stable address
  // across workspace moves. Validated against every solved problem.
  std::unique_ptr<ConeSpec> cone_;
  // Equilibrated working copy of the problem data (pattern fixed at bind).
  linalg::SparseMatrix g_;
  // Raw (unequilibrated) G values of the last solve: when a re-solve only
  // changed h/c — a capacity-bound sweep — the equilibration and the KKT
  // value update are skipped entirely.
  std::vector<double> raw_g_values_;
  Vector c_, h_;
  Vector row_scale_, col_scale_;      // accumulated Ruiz scalings
  Vector ruiz_row_max_, ruiz_col_max_;  // per-round work buffers
  std::unique_ptr<KktSystem> kkt_;
  // Cached symbolic analysis offered via seed_symbolic(), handed to the
  // KKT system when the first solve creates it.
  std::unique_ptr<SymbolicAnalysis> pending_symbolic_;
  std::unique_ptr<NtScaling> scaling_;
  // Iterates and solve-loop work vectors.
  Vector x_, s_, z_, e_;
  Vector best_x_, best_s_, best_z_;
  Vector r_dual_, r_pri_;
  Vector u1_, v1_, u2_, v2_;
  Vector dx_aff_, dz_aff_, ds_aff_, dx_, dz_, ds_;
  // Previous optimal solution in original (unscaled) coordinates; empty
  // until a solve of the bound structure reaches an optimum.
  struct WarmPoint {
    Vector x, s, z;
  };
  WarmPoint warm_;
  // Set by the recovery ladder (and its cleanup) to force the next attempt
  // through the full numeric refresh — re-copy G, re-equilibrate, update
  // the KKT values — even when the raw coefficients are unchanged.
  bool refresh_numerics_ = false;
  // Cumulative counters.
  int solves_ = 0;
  long total_iterations_ = 0;
  int warm_started_solves_ = 0;
  int recovered_solves_ = 0;
};

/// Solves a conic problem. Stateless; thread-compatible (distinct instances
/// may run concurrently).
class IpmSolver {
 public:
  explicit IpmSolver(SolverOptions options = {}) : options_(options) {}

  SolveResult solve(const ConicProblem& problem) const;

  /// Solves with a persistent workspace. The first call binds `workspace`
  /// to the problem's structure; later calls require the same G pattern,
  /// cone and dimensions (ContractViolation otherwise) and reuse the
  /// symbolic KKT analysis, the scaling buffers and — when enabled — the
  /// last optimum reached as a warm start. A kNumericalFailure exit
  /// escalates through the recovery ladder (see
  /// SolverOptions::recovery_attempts) before it is reported. `control`
  /// carries this execution's deadline, token, failpoint and trace sink.
  SolveResult solve(const ConicProblem& problem, IpmWorkspace& workspace,
                    const SolveControl& control = {}) const;

  const SolverOptions& options() const { return options_; }

 private:
  /// One interior-point run under `options` (no ladder). The symbolic KKT
  /// analysis stays shared across attempts.
  SolveResult solve_attempt(const ConicProblem& problem, IpmWorkspace& ws,
                            const SolverOptions& options,
                            const SolveControl& control) const;

  SolverOptions options_;
};

}  // namespace bbs::solver
