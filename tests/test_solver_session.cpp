// Tests for SolverSession: repeated solves of one problem structure with
// in-place parameter updates, a persistent KKT workspace (symbolic
// factorisation shared by the whole session) and warm starts.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bbs/common/assert.hpp"
#include "bbs/core/refinement.hpp"
#include "bbs/core/solver_session.hpp"
#include "bbs/core/two_phase.hpp"
#include "testing/support.hpp"

namespace bbs::core {
namespace {

/// Tolerances tight enough that two independent solves of the same point
/// land on the same side of every rounding boundary (the default 1e-6 gap
/// leaves knife edges at exactly-integer optima; the rounding epsilon is
/// 1e-7), but loose enough that both the cold and the warm-started
/// trajectory still reach them before their numerical floor.
MappingOptions tight_options() {
  MappingOptions options;
  options.ipm.feas_tol = 1e-7;
  options.ipm.gap_tol = 1e-7;
  return options;
}

void expect_same_mapping(const MappingResult& session_result,
                         const MappingResult& fresh, const char* context) {
  ASSERT_EQ(session_result.status, fresh.status) << context;
  if (!fresh.feasible()) return;
  BBS_EXPECT_NEAR_REL(session_result.objective_continuous,
                      fresh.objective_continuous, 1e-5);
  BBS_EXPECT_NEAR_REL(session_result.objective_rounded,
                      fresh.objective_rounded, 1e-5);
  EXPECT_EQ(session_result.verified, fresh.verified) << context;
  ASSERT_EQ(session_result.graphs.size(), fresh.graphs.size());
  for (std::size_t g = 0; g < fresh.graphs.size(); ++g) {
    ASSERT_EQ(session_result.graphs[g].tasks.size(),
              fresh.graphs[g].tasks.size());
    for (std::size_t t = 0; t < fresh.graphs[g].tasks.size(); ++t) {
      EXPECT_EQ(session_result.graphs[g].tasks[t].budget,
                fresh.graphs[g].tasks[t].budget)
          << context << " graph " << g << " task " << t;
    }
    ASSERT_EQ(session_result.graphs[g].buffers.size(),
              fresh.graphs[g].buffers.size());
    for (std::size_t b = 0; b < fresh.graphs[g].buffers.size(); ++b) {
      EXPECT_EQ(session_result.graphs[g].buffers[b].capacity,
                fresh.graphs[g].buffers[b].capacity)
          << context << " graph " << g << " buffer " << b;
    }
  }
}

TEST(SolverSession, SymbolicFactorisationSharedAcrossSweep) {
  const model::Configuration config = testing::multi_graph_sweep();
  SolverSession session(config);
  for (Index cap = 1; cap <= 8; ++cap) {
    session.set_all_buffer_caps(0, cap);
    const MappingResult result = session.solve();
    EXPECT_TRUE(result.feasible()) << "cap " << cap;
  }
  EXPECT_EQ(session.solves(), 8);
  ASSERT_NE(session.workspace().kkt(), nullptr);
  // The reuse invariant of the whole PR: one symbolic analysis for the
  // entire multi-point sweep, not one per point.
  EXPECT_EQ(session.workspace().kkt()->stats().symbolic_factorisations, 1);
  EXPECT_GT(session.workspace().kkt()->stats().factorise_calls, 8);
}

TEST(SolverSession, CapSweepMatchesFreshSolves) {
  const model::Configuration config = testing::multi_graph_sweep();
  SessionOptions session_options;
  session_options.mapping = tight_options();
  SolverSession session(config, session_options);
  for (Index cap = 1; cap <= 8; ++cap) {
    session.set_all_buffer_caps(0, cap);
    session.set_all_buffer_caps(1, cap);
    const MappingResult from_session = session.solve();

    model::Configuration fresh_config = config;
    for (Index gi = 0; gi < fresh_config.num_task_graphs(); ++gi) {
      model::TaskGraph& tg = fresh_config.mutable_task_graph(gi);
      for (Index b = 0; b < tg.num_buffers(); ++b) {
        tg.set_max_capacity(b, cap);
      }
    }
    const MappingResult fresh =
        compute_budgets_and_buffers(fresh_config, tight_options());
    expect_same_mapping(from_session, fresh,
                        ("cap " + std::to_string(cap)).c_str());
  }
}

TEST(SolverSession, PeriodUpdatesMatchFreshSolves) {
  const model::Configuration config = testing::multi_graph_sweep();
  SessionOptions session_options;
  session_options.mapping = tight_options();
  SolverSession session(config, session_options);
  // Includes an infeasible probe (mu = 2 needs beta > rho = 40 on p0 while
  // sharing it with the audio chain) to check the session recovers from a
  // cold restart and still matches the fresh solve afterwards.
  for (const double period : {14.0, 12.0, 2.0, 10.0, 9.5}) {
    session.set_required_period(0, period);
    const MappingResult from_session = session.solve();

    model::Configuration fresh_config = config;
    fresh_config.mutable_task_graph(0).set_required_period(period);
    const MappingResult fresh =
        compute_budgets_and_buffers(fresh_config, tight_options());
    expect_same_mapping(from_session, fresh,
                        ("period " + std::to_string(period)).c_str());
  }
  EXPECT_EQ(session.workspace().kkt()->stats().symbolic_factorisations, 1);
}

TEST(SolverSession, WarmStartsDoNotIncreaseTotalIterations) {
  const model::Configuration config = testing::multi_graph_sweep();
  SessionOptions warm_options;
  SessionOptions cold_options;
  cold_options.mapping.ipm.warm_start = false;
  SolverSession warm(config, warm_options);
  SolverSession cold(config, cold_options);
  for (Index cap = 1; cap <= 8; ++cap) {
    warm.set_all_buffer_caps(0, cap);
    cold.set_all_buffer_caps(0, cap);
    const MappingResult rw = warm.solve();
    const MappingResult rc = cold.solve();
    EXPECT_EQ(rw.status, rc.status) << "cap " << cap;
  }
  EXPECT_EQ(cold.workspace().warm_started_solves(), 0);
  // All but the first solve find a seed (every point here is feasible).
  EXPECT_EQ(warm.workspace().warm_started_solves(), 7);
  EXPECT_LE(warm.total_ipm_iterations(), cold.total_ipm_iterations());
}

TEST(SolverSession, FixedDeltaSessionMatchesBufferFirst) {
  const model::Configuration config = testing::multi_graph_sweep();
  const std::vector<MappingResult> swept =
      sweep_buffer_first(config, 1, 6, tight_options());
  ASSERT_EQ(swept.size(), 6u);
  for (Index cap = 1; cap <= 6; ++cap) {
    const MappingResult fresh =
        solve_buffer_first(config, cap, tight_options());
    expect_same_mapping(swept[static_cast<std::size_t>(cap - 1)], fresh,
                        ("buffer-first cap " + std::to_string(cap)).c_str());
  }
}

TEST(SolverSession, BudgetFirstPeriodSearchIsConsistent) {
  const model::Configuration config = testing::multi_graph_sweep();
  const auto two_phase =
      minimal_feasible_period_budget_first(config, 0, 14.0, 1e-4);
  ASSERT_TRUE(two_phase.has_value());
  EXPECT_TRUE(two_phase->mapping.feasible());
  EXPECT_LE(two_phase->period, 14.0);

  // The flow it claims feasible must actually be feasible when re-run from
  // scratch at the found period.
  model::Configuration at_found = config;
  at_found.mutable_task_graph(0).set_required_period(two_phase->period);
  EXPECT_TRUE(solve_budget_first(at_found).feasible());

  // Committing phase-1 budgets can never beat the joint flow.
  model::Configuration joint_config = config;
  const auto joint = minimal_feasible_period(joint_config, 0, 14.0, 1e-4);
  ASSERT_TRUE(joint.has_value());
  EXPECT_GE(two_phase->period, joint->period - 1e-6);
}

TEST(SolverSession, PeriodSearchesReturnVerifiedMappings) {
  // The searches probe with verification disabled (a probe is only a
  // feasibility query), so the mapping they hand back must carry the full
  // verification pass run at the found period.
  model::Configuration config = testing::multi_graph_sweep();
  const auto joint = minimal_feasible_period(config, 0, 14.0, 1e-4);
  ASSERT_TRUE(joint.has_value());
  EXPECT_TRUE(joint->mapping.verified);
  for (const MappedGraph& mg : joint->mapping.graphs) {
    EXPECT_TRUE(mg.verification.throughput_met);
    EXPECT_GT(mg.verification.mcr, 0.0);
  }
  const auto staged = minimal_feasible_period_budget_first(config, 0, 14.0);
  ASSERT_TRUE(staged.has_value());
  EXPECT_TRUE(staged->mapping.verified);
}

TEST(SolverSession, CapUpdateWithoutCapRowThrows) {
  // two_task_chain leaves max_capacity = -1: the built program has no cap
  // row to rewrite, which must be reported, not silently ignored.
  const model::Configuration config = testing::two_task_chain();
  SolverSession session(config);
  EXPECT_THROW(session.set_buffer_cap(0, 0, 3), ContractViolation);
  EXPECT_THROW(session.set_buffer_cap(0, 0, 0), ContractViolation);
}

TEST(SolverSession, FixedValueUpdatesRequireMatchingBuild) {
  const model::Configuration config = testing::multi_graph_sweep();
  SolverSession session(config);  // joint build: nothing is fixed
  EXPECT_THROW(session.set_fixed_budgets(0, Vector{1.0, 1.0, 1.0}),
               ContractViolation);
  EXPECT_THROW(session.set_fixed_deltas(0, Vector{1.0, 1.0}),
               ContractViolation);
}

TEST(SolverSession, CallerConfigurationIsNeverTouched) {
  const model::Configuration config = testing::multi_graph_sweep();
  SolverSession session(config);
  session.set_all_buffer_caps(0, 3);
  session.set_required_period(0, 13.0);
  (void)session.solve();
  EXPECT_EQ(config.task_graph(0).buffer(0).max_capacity, 8);
  EXPECT_EQ(config.task_graph(0).required_period(), 12.0);
  EXPECT_EQ(session.config().task_graph(0).buffer(0).max_capacity, 3);
  EXPECT_EQ(session.config().task_graph(0).required_period(), 13.0);
}

TEST(SolverSession, RefinementUsesSessionConfiguration) {
  const model::Configuration config = testing::multi_graph_sweep();
  SolverSession session(config);
  session.set_all_buffer_caps(0, 4);
  MappingResult result = session.solve();
  ASSERT_TRUE(result.feasible());
  ASSERT_TRUE(result.verified);
  const RefinementStats stats = refine_rounded_mapping(session, result);
  EXPECT_LE(stats.cost_after, stats.cost_before + 1e-12);
  // Refinement re-verifies every accepted decrement against the session's
  // updated caps/periods.
  for (const MappedGraph& mg : result.graphs) {
    EXPECT_TRUE(mg.verification.throughput_met);
  }
}

TEST(IpmWorkspace, RejectsForeignProblemStructure) {
  const BuiltProgram small = build_algorithm1(testing::two_task_chain());
  const BuiltProgram large = build_algorithm1(testing::multi_graph_sweep());
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  EXPECT_TRUE(ipm.solve(small.problem, workspace).is_optimal());
  EXPECT_THROW(ipm.solve(large.problem, workspace), ContractViolation);
  workspace.reset();
  EXPECT_TRUE(ipm.solve(large.problem, workspace).is_optimal());
}

TEST(IpmWorkspace, RejectsSamePatternDifferentCone) {
  // Identical G pattern, different cone partition: the rebind check must
  // compare the cone too, not just the sparsity structure.
  const linalg::SparseMatrix g2 = linalg::SparseMatrix::identity(2);
  // max x1 + x2 s.t. x <= 1 elementwise, vs. the same rows as one SOC(2).
  const solver::ConicProblem lp(Vector{-1.0, -1.0}, g2, Vector{1.0, 1.0},
                                solver::ConeSpec(2, {}));
  const solver::ConicProblem soc(Vector{-1.0, -1.0}, g2, Vector{2.0, 1.0},
                                 solver::ConeSpec(0, {2}));
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  EXPECT_TRUE(ipm.solve(lp, workspace).is_optimal());
  EXPECT_THROW(ipm.solve(soc, workspace), ContractViolation);
}

TEST(IpmWorkspace, SurvivesDestructionOfTheBoundProblem) {
  // The workspace must hold no references into a solved problem: binding
  // state (cone, matrices) is copied, so re-solving an identical program
  // after the first one was destroyed is valid — the session pattern when
  // a program is rebuilt in place.
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  {
    const BuiltProgram first = build_algorithm1(testing::multi_graph_sweep());
    ASSERT_TRUE(ipm.solve(first.problem, workspace).is_optimal());
  }
  const BuiltProgram second = build_algorithm1(testing::multi_graph_sweep());
  const solver::SolveResult again = ipm.solve(second.problem, workspace);
  EXPECT_TRUE(again.is_optimal());
  EXPECT_TRUE(again.warm_started);
}

TEST(IpmWorkspace, RepeatSolveWarmStartsAndAgrees) {
  const BuiltProgram program = build_algorithm1(testing::multi_graph_sweep());
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  const solver::SolveResult first = ipm.solve(program.problem, workspace);
  const solver::SolveResult second = ipm.solve(program.problem, workspace);
  ASSERT_TRUE(first.is_optimal());
  ASSERT_TRUE(second.is_optimal());
  EXPECT_FALSE(first.warm_started);
  EXPECT_TRUE(second.warm_started);
  // Re-solving the identical problem from its own solution is the easiest
  // warm start there is.
  EXPECT_LE(second.iterations, first.iterations);
  BBS_EXPECT_NEAR_REL(second.primal_objective, first.primal_objective, 1e-6);
}

TEST(IpmWorkspace, ExhaustedLadderKeepsTheWarmStart) {
  // The recovery ladder drops the warm start for its cold retries. When no
  // rung reaches an optimum it must put the last optimum back, so the next
  // solve (the next bisection probe) still starts warm.
  const BuiltProgram program = build_algorithm1(testing::multi_graph_sweep());
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  const solver::SolveResult cold = ipm.solve(program.problem, workspace);
  ASSERT_TRUE(cold.is_optimal());
  ASSERT_FALSE(cold.warm_started);

  solver::SolveControl failing;
  failing.fail_at_iteration = 0;  // re-fires on every rung: the ladder runs dry
  const solver::SolveResult failed =
      ipm.solve(program.problem, workspace, failing);
  EXPECT_EQ(failed.status, solver::SolveStatus::kNumericalFailure);
  EXPECT_EQ(failed.recovery_attempts, ipm.options().recovery_attempts);
  EXPECT_FALSE(failed.recovered);

  const solver::SolveResult next = ipm.solve(program.problem, workspace);
  ASSERT_TRUE(next.is_optimal());
  EXPECT_TRUE(next.warm_started);
  BBS_EXPECT_NEAR_REL(next.primal_objective, cold.primal_objective, 1e-6);
}

}  // namespace
}  // namespace bbs::core
