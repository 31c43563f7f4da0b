// Warm-started solver sessions for repeated solves of one problem
// structure.
//
// The drivers the paper evaluates — the capacity trade-off sweep and the
// throughput binary search — solve the *same* Algorithm-1 program dozens of
// times with only a handful of bound/rhs entries changed between solves.
// A SolverSession amortises everything that is structure-bound across those
// solves, in three layers:
//
//   1. the conic program is built once; parameter changes (buffer capacity
//      caps, target periods, fixed phase-1 budgets/deltas) mutate only the
//      affected h entries and -mu coefficients in place (ProgramRowMap);
//   2. the interior-point solver runs through a persistent IpmWorkspace, so
//      the KKT system — including its one-time symbolic factorisation —
//      the Ruiz scaling buffers and all iterate vectors survive across
//      solves (KktSystem::stats().symbolic_factorisations == 1 for the
//      whole session);
//   3. each solve is warm-started from the last optimal point the
//      workspace reached, pushed back into the cone interior (cold only
//      until the first optimum).
//
// The session owns a private copy of the configuration: parameter setters
// mutate the copy and the program in lockstep, and the caller's
// configuration is never touched.
#pragma once

#include "bbs/core/budget_buffer_solver.hpp"

namespace bbs::core {

struct SessionOptions {
  /// Per-solve options (IPM, rounding, verification). Warm starting is
  /// controlled by mapping.ipm.warm_start.
  MappingOptions mapping;
  /// Build-time options: fix budgets (two-phase budget-first) or deltas
  /// (two-phase buffer-first) to make the per-solve program an LP /
  /// reduced SOCP.
  BuildOptions build;
};

class SolverSession {
 public:
  /// Builds the Algorithm-1 program for `config` once. Throws ModelError on
  /// invalid configurations. Buffers that should receive in-place cap
  /// updates later must have a finite max_capacity here (the cap row must
  /// exist in the built program).
  explicit SolverSession(const model::Configuration& config,
                         SessionOptions options = {});

  // --- In-place parameter updates ------------------------------------------
  // Each mutates the session's configuration copy and the built program in
  // lockstep; the problem structure (sparsity pattern, cone, variables) is
  // preserved, which is what keeps the workspace's symbolic factorisation
  // valid.

  /// Sets the capacity cap of one buffer (>= 1; the buffer must have been
  /// capped at construction time).
  void set_buffer_cap(Index graph, Index buffer, Index cap);
  /// Sets a common capacity cap on all buffers of a graph (the trade-off
  /// sweep's step).
  void set_all_buffer_caps(Index graph, Index cap);
  /// Sets a graph's required period mu(T) (the binary search's step).
  void set_required_period(Index graph, double period);
  /// Replaces a graph's fixed phase-1 budgets (sessions built with
  /// BuildOptions::fixed_budgets only).
  void set_fixed_budgets(Index graph, const Vector& budgets);
  /// Replaces a graph's fixed phase-1 space-token counts (sessions built
  /// with BuildOptions::fixed_deltas only).
  void set_fixed_deltas(Index graph, const Vector& deltas);

  /// Installs the execution control (deadline, cancel token, injected
  /// failure, trace sink) for subsequent solve() calls; a default control
  /// clears it. Pooled sessions get the current request's control on every
  /// acquire, so one request's deadline never leaks into the next. An
  /// interrupted solve reports kTimedOut/kCancelled through the
  /// MappingResult and stores no warm start — the program, workspace and
  /// symbolic factorisation stay valid, so the session remains reusable.
  void set_solve_control(solver::SolveControl control) {
    control_ = std::move(control);
  }

  /// Solves the current program through the persistent workspace and runs
  /// the usual rounding + verification tail. Equivalent (up to solver
  /// tolerances) to compute_budgets_and_buffers on the mutated
  /// configuration, but without any per-solve setup.
  MappingResult solve();

  /// The session's configuration copy (reflects all parameter updates).
  const model::Configuration& config() const { return config_; }
  const BuiltProgram& program() const { return program_; }
  /// Persistent solver state; workspace().kkt()->stats() exposes the
  /// symbolic-reuse invariant, workspace().total_iterations() the
  /// cumulative IPM effort.
  const solver::IpmWorkspace& workspace() const { return workspace_; }
  int solves() const { return workspace_.solves(); }
  long total_ipm_iterations() const { return workspace_.total_iterations(); }

  /// The options this session was constructed with (structure cache: the
  /// build/mapping options are part of the persisted session payload).
  const SessionOptions& options() const { return options_; }

  /// Offers a cached KKT symbolic analysis for the first solve (persistent
  /// structure cache pre-warm). Validated inside the solver; a mismatched
  /// hint falls back to a full derivation, never an error.
  void seed_symbolic(solver::SymbolicAnalysis analysis) {
    workspace_.seed_symbolic(std::move(analysis));
  }
  /// Exports the KKT symbolic analysis after the first solve.
  std::optional<solver::SymbolicAnalysis> export_symbolic() const {
    return workspace_.export_symbolic();
  }

 private:
  SessionOptions options_;
  model::Configuration config_;
  BuiltProgram program_;
  solver::IpmWorkspace workspace_;
  solver::SolveControl control_;
};

}  // namespace bbs::core
