#include "bbs/solver/ipm_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bbs/common/assert.hpp"

namespace bbs::solver {

namespace {

using linalg::SparseMatrix;
using linalg::TripletList;

/// Ruiz equilibration of G in place: accumulates diagonal row/column
/// scalings that bring the nonzero magnitudes of Dr * G * Dc towards 1 into
/// `row_scale` / `col_scale` (reset to 1 on entry). Rows belonging to the
/// same second-order cone block receive a common factor (any per-block
/// positive multiple of the identity is a cone automorphism; general diagonal
/// scalings are not). `row_max` / `col_max` are caller-owned work buffers so
/// repeated solves through a workspace allocate nothing here.
void ruiz_equilibrate(SparseMatrix& g, const ConeSpec& cone, int rounds,
                      Vector& row_scale, Vector& col_scale, Vector& row_max,
                      Vector& col_max) {
  const auto m = static_cast<std::size_t>(g.rows());
  const auto n = static_cast<std::size_t>(g.cols());
  row_scale.assign(m, 1.0);
  col_scale.assign(n, 1.0);

  for (int round = 0; round < rounds; ++round) {
    row_max.assign(m, 0.0);
    col_max.assign(n, 0.0);
    for (Index c = 0; c < g.cols(); ++c) {
      for (Index k = g.col_ptr()[c]; k < g.col_ptr()[c + 1]; ++k) {
        const double a = std::abs(g.values()[k]);
        const auto r = static_cast<std::size_t>(g.row_ind()[k]);
        row_max[r] = std::max(row_max[r], a);
        col_max[static_cast<std::size_t>(c)] =
            std::max(col_max[static_cast<std::size_t>(c)], a);
      }
    }
    // SOC blocks must share one factor: use the block-wise maximum.
    for (std::size_t b = 0; b < cone.soc_dims().size(); ++b) {
      const Index off = cone.soc_offset(b);
      const Index q = cone.soc_dims()[b];
      double blk = 0.0;
      for (Index i = off; i < off + q; ++i)
        blk = std::max(blk, row_max[static_cast<std::size_t>(i)]);
      for (Index i = off; i < off + q; ++i)
        row_max[static_cast<std::size_t>(i)] = blk;
    }
    // Turn the maxima into this round's scalings in place.
    for (std::size_t i = 0; i < m; ++i) {
      row_max[i] = (row_max[i] > 0.0) ? 1.0 / std::sqrt(row_max[i]) : 1.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
      col_max[j] = (col_max[j] > 0.0) ? 1.0 / std::sqrt(col_max[j]) : 1.0;
    }
    for (Index c = 0; c < g.cols(); ++c) {
      for (Index k = g.col_ptr()[c]; k < g.col_ptr()[c + 1]; ++k) {
        g.values()[k] *= row_max[static_cast<std::size_t>(g.row_ind()[k])] *
                         col_max[static_cast<std::size_t>(c)];
      }
    }
    for (std::size_t i = 0; i < m; ++i) row_scale[i] *= row_max[i];
    for (std::size_t j = 0; j < n; ++j) col_scale[j] *= col_max[j];
  }
}

double safe_div(double a, double b) {
  return (b == 0.0) ? 0.0 : a / b;
}

}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kPrimalInfeasible:
      return "primal-infeasible";
    case SolveStatus::kDualInfeasible:
      return "dual-infeasible";
    case SolveStatus::kMaxIterations:
      return "max-iterations";
    case SolveStatus::kNumericalFailure:
      return "numerical-failure";
    case SolveStatus::kTimedOut:
      return "timed-out";
    case SolveStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

void IpmWorkspace::reset() { *this = IpmWorkspace(); }

void IpmWorkspace::seed_symbolic(SymbolicAnalysis analysis) {
  if (kkt_ != nullptr) return;  // symbolic phase already happened
  pending_symbolic_ =
      std::make_unique<SymbolicAnalysis>(std::move(analysis));
}

std::optional<SymbolicAnalysis> IpmWorkspace::export_symbolic() const {
  return kkt_ != nullptr ? kkt_->export_symbolic() : std::nullopt;
}

SolveResult IpmSolver::solve(const ConicProblem& problem) const {
  IpmWorkspace workspace;
  return solve(problem, workspace);
}

SolveResult IpmSolver::solve(const ConicProblem& problem, IpmWorkspace& ws,
                             const SolveControl& control) const {
  SolveResult result = solve_attempt(problem, ws, options_, control);
  if (result.status != SolveStatus::kNumericalFailure ||
      options_.recovery_attempts <= 0) {
    return result;
  }

  // --- Recovery ladder -------------------------------------------------------
  // Each rung retries the whole solve with progressively heavier-handed
  // numerics. The symbolic KKT analysis is shared by every attempt (a
  // re-equilibration only changes values), so a recovered solve still
  // reports symbolic_factorisations == 1.
  SolverOptions opts = options_;
  SolveControl rung_control = control;
  // An injected fault scoped to the first attempt (ipm.fail_once) is
  // disarmed here so the ladder can demonstrate an actual recovery; the
  // unscoped ipm.fail_at keeps firing and exhausts the ladder instead.
  if (rung_control.fail_only_first_attempt) {
    rung_control.fail_at_iteration = -1;
  }
  // Rung 1 drops the warm-start seed — a stale or near-boundary seed is the
  // most common cause of a breakdown — and every rung restarts cold. The
  // seed is set aside, not discarded: a ladder that reaches no optimum puts
  // it back below, so the next solve of a bisection still starts warm.
  IpmWorkspace::WarmPoint set_aside = std::exchange(ws.warm_, {});
  int total_iterations = result.iterations;
  int attempts = 0;
  for (; attempts < options_.recovery_attempts &&
         result.status == SolveStatus::kNumericalFailure;) {
    ++attempts;
    if (attempts >= 2) {
      // Rungs 2+: re-run the Ruiz equilibration with extra rounds before
      // the cold restart.
      opts.equilibrate_rounds = std::max(options_.equilibrate_rounds, 2) * 2;
      ws.refresh_numerics_ = true;
    }
    if (options_.verbosity >= 1) {
      std::fprintf(stderr,
                   "[ipm] recovery attempt %d/%d (cold restart%s)\n", attempts,
                   options_.recovery_attempts,
                   attempts >= 2 ? " + re-equilibrate" : "");
    }
    if (control.trace_sink != nullptr) {
      control.trace_sink->ipm_ladder_rung(attempts);
    }
    result = solve_attempt(problem, ws, opts, rung_control);
    total_iterations += result.iterations;
  }
  if (result.status != SolveStatus::kOptimal) ws.warm_ = std::move(set_aside);

  // One ladder run is ONE logical solve: collapse the per-attempt counter
  // increments (each attempt bumped solves_ by one) and report the total
  // interior-point effort, so sessions and engines see consistent
  // solve/iteration accounting whether or not the ladder fired.
  ws.solves_ -= attempts;
  result.iterations = total_iterations;

  // Restore the base equilibration so later solves through this workspace
  // are unaffected by the ladder (if the instance genuinely needs the extra
  // rounds, the ladder will earn them again — and the recovery will be
  // visible again).
  if (attempts >= 2) ws.refresh_numerics_ = true;

  result.recovery_attempts = attempts;
  // "Recovered" means the retry produced a usable answer — an optimum or an
  // infeasibility certificate. A retry that merely turned the breakdown into
  // a stall or timeout is reported as that status but not counted.
  if (result.status == SolveStatus::kOptimal ||
      result.status == SolveStatus::kPrimalInfeasible ||
      result.status == SolveStatus::kDualInfeasible) {
    result.recovered = true;
    ++ws.recovered_solves_;
  }
  return result;
}

SolveResult IpmSolver::solve_attempt(const ConicProblem& problem,
                                     IpmWorkspace& ws,
                                     const SolverOptions& options,
                                     const SolveControl& control) const {
  const auto n = static_cast<std::size_t>(problem.num_vars());
  const auto m = static_cast<std::size_t>(problem.num_rows());
  BBS_REQUIRE(m > 0, "IpmSolver: problem has no constraints");
  BBS_REQUIRE(n > 0, "IpmSolver: problem has no variables");

  // --- Bind the workspace to the problem structure -------------------------
  bool g_changed = true;
  if (!ws.bound_) {
    ws.cone_ = std::make_unique<ConeSpec>(problem.cone());
    ws.g_ = problem.g();
    ws.raw_g_values_ = problem.g().values();
    ws.scaling_ = std::make_unique<NtScaling>(*ws.cone_);
    ws.bound_ = true;
  } else {
    BBS_REQUIRE(ws.g_.rows() == problem.g().rows() &&
                    ws.g_.cols() == problem.g().cols() &&
                    ws.g_.col_ptr() == problem.g().col_ptr() &&
                    ws.g_.row_ind() == problem.g().row_ind() &&
                    ws.cone_->nonneg() == problem.cone().nonneg() &&
                    ws.cone_->soc_dims() == problem.cone().soc_dims(),
                "IpmSolver: workspace is bound to a different problem "
                "structure (use IpmWorkspace::reset)");
    g_changed =
        ws.refresh_numerics_ || problem.g().values() != ws.raw_g_values_;
    if (g_changed) {
      ws.raw_g_values_ = problem.g().values();
      std::copy(problem.g().values().begin(), problem.g().values().end(),
                ws.g_.values().begin());
    }
  }
  ws.refresh_numerics_ = false;
  // The workspace's copy: every reference the persistent state holds points
  // here, never into `problem`.
  const ConeSpec& cone = *ws.cone_;

  // --- Equilibrated working copy. The scalings depend only on G, so a
  // re-solve that changed just h/c (a capacity-bound sweep step) keeps the
  // previous equilibrated copy and scalings — and the KKT values below —
  // untouched. -------------------------------------------------------------
  SparseMatrix& g = ws.g_;
  if (g_changed) {
    if (options.equilibrate_rounds > 0) {
      ruiz_equilibrate(g, cone, options.equilibrate_rounds, ws.row_scale_,
                       ws.col_scale_, ws.ruiz_row_max_, ws.ruiz_col_max_);
    } else {
      ws.row_scale_.assign(m, 1.0);
      ws.col_scale_.assign(n, 1.0);
    }
  }
  const Vector& row_scale = ws.row_scale_;
  const Vector& col_scale = ws.col_scale_;
  Vector& c = ws.c_;
  Vector& h = ws.h_;
  c.resize(n);
  h.resize(m);
  for (std::size_t j = 0; j < n; ++j) c[j] = problem.c()[j] * col_scale[j];
  for (std::size_t i = 0; i < m; ++i) h[i] = problem.h()[i] * row_scale[i];

  const double norm_c = std::max(1.0, linalg::norm2(c));
  const double norm_h = std::max(1.0, linalg::norm2(h));

  // --- State ---------------------------------------------------------------
  Vector& x = ws.x_;
  Vector& s = ws.s_;
  Vector& z = ws.z_;
  Vector& e = ws.e_;
  e.assign(m, 0.0);
  cone.identity(e);
  double tau = 1.0;
  double kappa = 1.0;

  // Warm start: map the previous optimal solution into the new equilibrated
  // coordinates and push it back into the cone interior along the identity.
  // Any anomaly (non-finite data, point irrecoverably outside the cone)
  // falls back to the cold start below.
  bool warm = false;
  if (options.warm_start && !ws.warm_.x.empty()) {
    x.resize(n);
    s.resize(m);
    z.resize(m);
    double check = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      x[j] = ws.warm_.x[j] / col_scale[j];
      check += std::abs(x[j]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      s[i] = ws.warm_.s[i] * row_scale[i];
      z[i] = ws.warm_.z[i] / row_scale[i];
      check += std::abs(s[i]) + std::abs(z[i]);
    }
    if (std::isfinite(check)) {
      // Push both cone points back to at least `pad` from the boundary
      // along the identity. (A Skajaa-style convex blend with the identity
      // was measured too: identical iteration counts on the paper's sweeps,
      // so the simpler shift stays.)
      const double pad = std::max(options.warm_start_margin, 1e-10);
      const double margin_s = cone.interior_margin(s);
      const double margin_z = cone.interior_margin(z);
      if (margin_s < pad) linalg::axpy(pad - margin_s, e, s);
      if (margin_z < pad) linalg::axpy(pad - margin_z, e, z);
      tau = 1.0;
      kappa = std::max(linalg::dot(s, z) / static_cast<double>(cone.degree()),
                       pad * pad);
      warm = cone.is_interior(s) && cone.is_interior(z) &&
             std::isfinite(kappa);
    }
  }
  if (!warm) {
    x.assign(n, 0.0);
    s.assign(m, 0.0);
    z.assign(m, 0.0);
    cone.identity(s);
    cone.identity(z);
    tau = 1.0;
    kappa = 1.0;
  }

  const double degree = static_cast<double>(cone.degree()) + 1.0;

  NtScaling& scaling = *ws.scaling_;
  if (ws.kkt_ == nullptr) {
    KktSystem::Options kkt_opts;
    kkt_opts.ordering = options.ordering;
    kkt_opts.static_regularisation = options.static_regularisation;
    kkt_opts.refine_steps = options.refine_steps;
    ws.kkt_ = std::make_unique<KktSystem>(g, kkt_opts);
    if (ws.pending_symbolic_ != nullptr) {
      ws.kkt_->seed_symbolic(std::move(*ws.pending_symbolic_));
      ws.pending_symbolic_.reset();
    }
  } else if (g_changed) {
    ws.kkt_->update_matrix_values(g);
  }
  KktSystem& kkt = *ws.kkt_;

  SolveResult result;
  result.x = x;
  result.s = s;
  result.z = z;

  auto finalise = [&](SolveStatus status, int iterations) {
    result.status = status;
    result.iterations = iterations;
    result.tau = tau;
    result.kappa = kappa;
    result.warm_started = warm;
    const double t = (status == SolveStatus::kOptimal) ? tau : 1.0;
    // Undo the equilibration and the homogenising scale.
    result.x.assign(n, 0.0);
    result.s.assign(m, 0.0);
    result.z.assign(m, 0.0);
    for (std::size_t j = 0; j < n; ++j)
      result.x[j] = col_scale[j] * x[j] / t;
    for (std::size_t i = 0; i < m; ++i) {
      result.s[i] = s[i] / (row_scale[i] * t);
      result.z[i] = row_scale[i] * z[i] / t;
    }
    result.primal_objective = problem.objective(result.x);
    result.dual_objective = -linalg::dot(problem.h(), result.z);
    result.duality_gap =
        std::abs(result.primal_objective - result.dual_objective);
    result.primal_residual = problem.primal_residual(result.x, result.s);
    result.dual_residual = problem.dual_residual(result.z);
    if (options.verbosity >= 1) {
      std::fprintf(stderr,
                   "[ipm] %s after %d iterations%s: pobj=%.9g dobj=%.9g "
                   "pres=%.3g dres=%.3g\n",
                   to_string(status), iterations, warm ? " (warm)" : "",
                   result.primal_objective, result.dual_objective,
                   result.primal_residual, result.dual_residual);
    }
    // Workspace bookkeeping: counters, plus the warm-start snapshot for the
    // next structurally identical solve. Only optimal solutions are stored
    // (an infeasibility certificate is no starting point), but a stored
    // snapshot *survives* infeasible solves in between: in a bisection
    // roughly every other probe lands on the infeasible side, and the last
    // known optimum of a nearby parameter remains a far better seed than
    // the cone identity.
    ++ws.solves_;
    ws.total_iterations_ += iterations;
    if (warm) ++ws.warm_started_solves_;
    if (status == SolveStatus::kOptimal) {
      ws.warm_.x = result.x;
      ws.warm_.s = result.s;
      ws.warm_.z = result.z;
    }
    return result;
  };

  Vector& r_dual = ws.r_dual_;
  Vector& r_pri = ws.r_pri_;
  Vector& u1 = ws.u1_;
  Vector& v1 = ws.v1_;
  Vector& u2 = ws.u2_;
  Vector& v2 = ws.v2_;
  r_dual.resize(n);
  r_pri.resize(m);
  u1.resize(n);
  v1.resize(m);
  u2.resize(n);
  v2.resize(m);

  // Best-iterate tracking: interior-point iterates eventually hit a
  // numerical floor where the residuals wander; the best point seen is what
  // gets reported when no further progress is possible.
  double best_merit = std::numeric_limits<double>::infinity();
  int best_iteration = -1;
  Vector& best_x = ws.best_x_;
  Vector& best_s = ws.best_s_;
  Vector& best_z = ws.best_z_;
  best_x = x;
  best_s = s;
  best_z = z;
  double best_tau = tau;
  double best_kappa = kappa;

  auto restore_best = [&]() {
    if (best_iteration >= 0) {
      x = best_x;
      s = best_s;
      z = best_z;
      tau = best_tau;
      kappa = best_kappa;
    }
  };
  auto best_meets_tolerances = [&]() {
    return best_merit <= 1.0;  // merit is pre-normalised by the tolerances
  };

  // Deadline/cancel bookkeeping: both limits resolve to one absolute time
  // point up front, so the per-iteration cost is a single clock read — and
  // zero when nothing is armed.
  using SolveClock = CancelToken::Clock;
  const CancelToken* cancel = control.cancel.get();
  SolveClock::time_point deadline = control.deadline;
  bool have_deadline = deadline != SolveClock::time_point::max();
  if (cancel != nullptr && cancel->has_deadline()) {
    deadline = std::min(deadline, cancel->deadline());
    have_deadline = true;
  }

  // Step length accepted on the previous iteration, reported to the trace
  // sink at the next convergence test (the current step is unknown there).
  double last_alpha = 0.0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // --- Cooperative interruption ------------------------------------------
    // Checked at iteration granularity: an expiry mid-iteration finishes
    // that iteration, so termination is bounded by one KKT solve. The best
    // iterate seen is still reported, as optimal when it already meets the
    // tolerances, and finalise() keeps warm snapshots for optimal exits
    // only — the enclosing session stays reusable either way.
    if (cancel != nullptr && cancel->cancelled()) {
      restore_best();
      return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                              : SolveStatus::kCancelled,
                      iter);
    }
    if (have_deadline && SolveClock::now() >= deadline) {
      restore_best();
      return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                              : SolveStatus::kTimedOut,
                      iter);
    }
    if (iter == control.fail_at_iteration) {
      // Injected fault (chaos tests): a hard numerical failure, never
      // rescued by the best iterate.
      restore_best();
      return finalise(SolveStatus::kNumericalFailure, iter);
    }
    // --- Residuals of the embedding ---------------------------------------
    // r_dual = G'z + c*tau ; r_pri = Gx - h*tau + s ; r_gap = c'x + h'z + kappa
    for (std::size_t j = 0; j < n; ++j) r_dual[j] = c[j] * tau;
    g.gaxpy_transpose(1.0, z, r_dual);
    for (std::size_t i = 0; i < m; ++i) r_pri[i] = s[i] - h[i] * tau;
    g.gaxpy(1.0, x, r_pri);
    const double cx = linalg::dot(c, x);
    const double hz = linalg::dot(h, z);
    const double r_gap = cx + hz + kappa;

    const double mu = (linalg::dot(s, z) + tau * kappa) / degree;

    // --- Convergence tests -------------------------------------------------
    {
      const double pres = linalg::norm2(r_pri) / (tau * norm_h);
      const double dres = linalg::norm2(r_dual) / (tau * norm_c);
      const double pobj = cx / tau;
      const double dobj = -hz / tau;
      const double gap = linalg::dot(s, z) / (tau * tau);
      const double rel_gap =
          gap / std::max(1.0, std::min(std::abs(pobj), std::abs(dobj)));
      if (options.verbosity >= 2) {
        std::fprintf(stderr,
                     "[ipm] it=%2d mu=%.3e tau=%.3e kappa=%.3e pres=%.3e "
                     "dres=%.3e gap=%.3e\n",
                     iter, mu, tau, kappa, pres, dres, gap);
      }
      if (control.trace_sink != nullptr) {
        control.trace_sink->ipm_iteration(iter, mu, pres, dres, last_alpha);
      }
      if (pres <= options.feas_tol && dres <= options.feas_tol &&
          (rel_gap <= options.gap_tol || gap <= options.gap_tol)) {
        return finalise(SolveStatus::kOptimal, iter);
      }
      // Merit: worst tolerance-normalised criterion (<= 1 means acceptable).
      const double merit = std::max({pres / options.feas_tol,
                                     dres / options.feas_tol,
                                     std::min(rel_gap, gap) /
                                         options.gap_tol});
      if (merit < best_merit) {
        best_merit = merit;
        best_iteration = iter;
        best_x = x;
        best_s = s;
        best_z = z;
        best_tau = tau;
        best_kappa = kappa;
      } else if (iter - best_iteration >= options.stall_iterations) {
        restore_best();
        return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                                : SolveStatus::kMaxIterations,
                        iter);
      }
      // Infeasibility certificates (checked on the normalised iterate).
      if (hz < 0.0) {
        Vector gtz(n, 0.0);
        g.gaxpy_transpose(1.0, z, gtz);
        if (linalg::norm2(gtz) * norm_h <= options.feas_tol * (-hz)) {
          return finalise(SolveStatus::kPrimalInfeasible, iter);
        }
      }
      if (cx < 0.0) {
        Vector gx_s = s;
        g.gaxpy(1.0, x, gx_s);
        if (linalg::norm2(gx_s) * norm_c <= options.feas_tol * (-cx)) {
          return finalise(SolveStatus::kDualInfeasible, iter);
        }
      }
    }

    // --- Scaling and KKT factorisation -------------------------------------
    try {
      scaling.update(s, z);
      kkt.factorise(scaling);
    } catch (const NumericalError&) {
      restore_best();
      return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                              : SolveStatus::kNumericalFailure,
                      iter);
    }
    const Vector& lambda = scaling.lambda();

    // Constant-part solve: G'v1 = -c ; G u1 - W^2 v1 = h.
    Vector p1(n);
    for (std::size_t j = 0; j < n; ++j) p1[j] = -c[j];
    kkt.solve(scaling, p1, h, u1, v1);
    const double den_const = linalg::dot(c, u1) + linalg::dot(h, v1);

    // One Newton direction for given (sigma, corrector terms).
    const Vector lambda_sq = cone.circ(lambda, lambda);
    auto compute_direction = [&](double sigma, const Vector* corr_s,
                                 double corr_kappa, Vector& dx, Vector& dz,
                                 Vector& ds, double& dtau, double& dkappa) {
      const double eta = 1.0 - sigma;
      // d_s = sigma*mu*e - lambda o lambda - corr ; d_kappa likewise.
      Vector d_s(m, 0.0);
      cone.identity(d_s);
      for (std::size_t i = 0; i < m; ++i) {
        d_s[i] = sigma * mu * d_s[i] - lambda_sq[i];
        if (corr_s != nullptr) d_s[i] -= (*corr_s)[i];
      }
      const double d_kappa = sigma * mu - tau * kappa - corr_kappa;

      const Vector ds_tilde = cone.solve_circ(lambda, d_s);
      const Vector w_ds = scaling.apply_w(ds_tilde);

      Vector p2(n), q2(m);
      for (std::size_t j = 0; j < n; ++j) p2[j] = -eta * r_dual[j];
      for (std::size_t i = 0; i < m; ++i) q2[i] = -eta * r_pri[i] - w_ds[i];
      kkt.solve(scaling, p2, q2, u2, v2);

      const double denom = den_const - kappa / tau;
      const double numer = -eta * r_gap - linalg::dot(c, u2) -
                           linalg::dot(h, v2) - d_kappa / tau;
      if (denom == 0.0) throw NumericalError("ipm: singular tau equation");
      dtau = numer / denom;

      dx.assign(n, 0.0);
      dz.assign(m, 0.0);
      for (std::size_t j = 0; j < n; ++j) dx[j] = u2[j] + dtau * u1[j];
      for (std::size_t i = 0; i < m; ++i) dz[i] = v2[i] + dtau * v1[i];
      // ds = W (ds_tilde - W dz).
      Vector wdz = scaling.apply_w(dz);
      Vector tmp(m);
      for (std::size_t i = 0; i < m; ++i) tmp[i] = ds_tilde[i] - wdz[i];
      ds = scaling.apply_w(tmp);
      dkappa = (d_kappa - kappa * dtau) / tau;
    };

    auto step_limit = [&](const Vector& ds, const Vector& dz, double dtau,
                          double dkappa) {
      double alpha = cone.max_step(s, ds);
      alpha = std::min(alpha, cone.max_step(z, dz));
      if (dtau < 0.0) alpha = std::min(alpha, -tau / dtau);
      if (dkappa < 0.0) alpha = std::min(alpha, -kappa / dkappa);
      return alpha;
    };

    Vector& dx_aff = ws.dx_aff_;
    Vector& dz_aff = ws.dz_aff_;
    Vector& ds_aff = ws.ds_aff_;
    double dtau_aff = 0.0;
    double dkappa_aff = 0.0;
    try {
      compute_direction(0.0, nullptr, 0.0, dx_aff, dz_aff, ds_aff, dtau_aff,
                        dkappa_aff);
    } catch (const NumericalError&) {
      restore_best();
      return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                              : SolveStatus::kNumericalFailure,
                      iter);
    }

    const double alpha_aff =
        std::min(1.0, step_limit(ds_aff, dz_aff, dtau_aff, dkappa_aff));

    // Mehrotra heuristic for the centring parameter.
    double mu_aff = 0.0;
    {
      Vector s_trial = s;
      Vector z_trial = z;
      linalg::axpy(alpha_aff, ds_aff, s_trial);
      linalg::axpy(alpha_aff, dz_aff, z_trial);
      const double tau_trial = tau + alpha_aff * dtau_aff;
      const double kappa_trial = kappa + alpha_aff * dkappa_aff;
      mu_aff = (linalg::dot(s_trial, z_trial) + tau_trial * kappa_trial) /
               degree;
    }
    double sigma = std::pow(std::clamp(safe_div(mu_aff, mu), 0.0, 1.0), 3.0);

    // Corrector terms: (W^{-T} ds_aff) o (W dz_aff) and dtau_aff*dkappa_aff.
    const Vector corr =
        cone.circ(scaling.apply_w_inv(ds_aff), scaling.apply_w(dz_aff));

    Vector& dx = ws.dx_;
    Vector& dz = ws.dz_;
    Vector& ds = ws.ds_;
    double dtau = 0.0;
    double dkappa = 0.0;
    try {
      compute_direction(sigma, &corr, dtau_aff * dkappa_aff, dx, dz, ds, dtau,
                        dkappa);
    } catch (const NumericalError&) {
      restore_best();
      return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                              : SolveStatus::kNumericalFailure,
                      iter);
    }

    if (options.verbosity >= 3) {
      // Debug: residuals of the Newton system for the combined direction.
      const double eta = 1.0 - sigma;
      Vector e1(n, 0.0);
      for (std::size_t j = 0; j < n; ++j)
        e1[j] = c[j] * dtau + eta * r_dual[j];
      g.gaxpy_transpose(1.0, dz, e1);
      Vector e2(m, 0.0);
      for (std::size_t i = 0; i < m; ++i)
        e2[i] = ds[i] - h[i] * dtau + eta * r_pri[i];
      g.gaxpy(1.0, dx, e2);
      const double e3 = linalg::dot(c, dx) + linalg::dot(h, dz) + dkappa +
                        eta * r_gap;
      std::fprintf(stderr,
                   "[ipm-dbg] |G'dz+c dtau+eta rd|=%.3e |G dx-h dtau+ds+eta "
                   "rp|=%.3e |gap eq|=%.3e\n",
                   linalg::norm_inf(e1), linalg::norm_inf(e2), std::abs(e3));
    }

    double alpha =
        options.step_fraction * step_limit(ds, dz, dtau, dkappa);
    alpha = std::min(alpha, 1.0);
    if (!(alpha > 0.0) || !std::isfinite(alpha)) {
      restore_best();
      return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                              : SolveStatus::kNumericalFailure,
                      iter);
    }

    linalg::axpy(alpha, dx, x);
    linalg::axpy(alpha, ds, s);
    linalg::axpy(alpha, dz, z);
    tau += alpha * dtau;
    kappa += alpha * dkappa;
    last_alpha = alpha;

    if (!cone.is_interior(s) || !cone.is_interior(z) || tau <= 0.0 ||
        kappa <= 0.0) {
      restore_best();
      return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                              : SolveStatus::kNumericalFailure,
                      iter + 1);
    }
  }

  restore_best();
  return finalise(best_meets_tolerances() ? SolveStatus::kOptimal
                                          : SolveStatus::kMaxIterations,
                  options.max_iterations);
}

}  // namespace bbs::solver
