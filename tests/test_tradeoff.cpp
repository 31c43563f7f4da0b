// Tests for the budget/buffer trade-off sweep (the machinery behind Figures
// 2(a), 2(b) and 3 of the paper).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bbs/common/assert.hpp"
#include "bbs/core/budget_buffer_solver.hpp"
#include "bbs/core/tradeoff.hpp"
#include "bbs/gen/generators.hpp"
#include "testing/support.hpp"

namespace bbs::core {
namespace {

TEST(Tradeoff, T1SweepIsMonotoneDecreasingAndConvex) {
  model::Configuration config = gen::producer_consumer_t1();
  const TradeoffSweep sweep = sweep_max_capacity(config, 0, 1, 10);
  ASSERT_EQ(sweep.points.size(), 10u);
  for (const TradeoffPoint& p : sweep.points) {
    ASSERT_TRUE(p.feasible) << "capacity " << p.max_capacity;
  }
  // Monotone decreasing budgets (Figure 2(a)).
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    EXPECT_LE(sweep.points[i].total_budget_continuous,
              sweep.points[i - 1].total_budget_continuous + 1e-6);
  }
  // The marginal saving per extra container decreases (Figure 2(b)):
  // the non-linearity of the trade-off.
  const linalg::Vector deltas = sweep.budget_deltas();
  ASSERT_EQ(deltas.size(), 9u);
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_LE(deltas[i], deltas[i - 1] + 1e-4);
  }
  EXPECT_GT(deltas.front(), 4.0);  // ~4.83 Mcycles for the 2nd container
  EXPECT_LT(deltas.back(), 1.0);   // ~0.30 for the 10th
}

TEST(Tradeoff, SweepRestoresOriginalCaps) {
  model::Configuration config = gen::producer_consumer_t1();
  config.mutable_task_graph(0).set_max_capacity(0, 7);
  sweep_max_capacity(config, 0, 1, 3);
  EXPECT_EQ(config.task_graph(0).buffer(0).max_capacity, 7);
}

TEST(Tradeoff, SweepRestoresCapsWhenThrowingMidSweep) {
  // A throw from inside the sweep loop (here: the per-point callback, the
  // supported way to abort a long sweep) must not leave the caller's
  // configuration with sweep-mutated caps.
  model::Configuration config = gen::producer_consumer_t1();
  config.mutable_task_graph(0).set_max_capacity(0, 7);
  int points_seen = 0;
  const auto abort_at_second_point = [&](const TradeoffPoint& point) {
    EXPECT_TRUE(point.feasible);
    if (++points_seen == 2) throw std::runtime_error("abort sweep");
  };
  EXPECT_THROW(
      sweep_max_capacity(config, 0, 1, 10, {}, abort_at_second_point),
      std::runtime_error);
  EXPECT_EQ(points_seen, 2);
  EXPECT_EQ(config.task_graph(0).buffer(0).max_capacity, 7);
}

TEST(Tradeoff, SweepSharesOneSymbolicFactorisationViaCallback) {
  // The sweep must not rebuild solver state between points: consecutive
  // feasible points arrive strictly ordered, one per capacity.
  model::Configuration config = gen::producer_consumer_t1();
  Index expected_cap = 1;
  const TradeoffSweep sweep = sweep_max_capacity(
      config, 0, 1, 6, {}, [&](const TradeoffPoint& point) {
        EXPECT_EQ(point.max_capacity, expected_cap++);
      });
  EXPECT_EQ(expected_cap, 7);
  EXPECT_EQ(sweep.points.size(), 6u);
}

TEST(Tradeoff, InfeasiblePointsMarked) {
  // mu = 2.2 on T1 makes capacity 1 infeasible (needs beta > 39) while
  // larger capacities work.
  testing::TwoTaskOptions opts;
  opts.required_period = 2.2;
  opts.size_weight = 1e-3;
  model::Configuration config = testing::two_task_chain(opts);

  const TradeoffSweep sweep = sweep_max_capacity(config, 0, 1, 40);
  ASSERT_EQ(sweep.points.size(), 40u);
  EXPECT_FALSE(sweep.points.front().feasible);
  EXPECT_TRUE(sweep.points.back().feasible);
  // Feasibility is monotone in the capacity bound.
  bool seen_feasible = false;
  for (const TradeoffPoint& p : sweep.points) {
    if (seen_feasible) {
      EXPECT_TRUE(p.feasible);
    }
    seen_feasible = seen_feasible || p.feasible;
  }
  EXPECT_TRUE(seen_feasible);
  // Deltas skip infeasible prefixes.
  EXPECT_LT(sweep.budget_deltas().size(), 39u);
}

TEST(Tradeoff, T2MiddleTaskReducedLast) {
  // Figure 3: sweeping both caps of the three-stage chain, the outer tasks'
  // budgets drop below the middle task's budget as soon as capacity allows.
  model::Configuration config = gen::three_stage_chain_t2();
  const TradeoffSweep sweep = sweep_max_capacity(config, 0, 1, 10);
  for (const TradeoffPoint& p : sweep.points) {
    ASSERT_TRUE(p.feasible);
    const double beta_a = p.budgets_continuous[0];
    const double beta_b = p.budgets_continuous[1];
    const double beta_c = p.budgets_continuous[2];
    EXPECT_NEAR(beta_a, beta_c, 1e-3 * (beta_a + 1.0));
    EXPECT_GE(beta_b, beta_a - 1e-6);
  }
  // At small capacity the gap is pronounced; it closes by capacity 10 when
  // every budget reaches the self-loop bound 4.
  EXPECT_GT(sweep.points[2].budgets_continuous[1] -
                sweep.points[2].budgets_continuous[0],
            1.0);
  EXPECT_NEAR(sweep.points[9].budgets_continuous[1], 4.0, 0.2);
}

TEST(Tradeoff, RejectsBadRange) {
  model::Configuration config = gen::producer_consumer_t1();
  EXPECT_THROW(sweep_max_capacity(config, 0, 0, 5), ContractViolation);
  EXPECT_THROW(sweep_max_capacity(config, 0, 4, 2), ContractViolation);
}

// ---------------------------------------------------------------------------
// Upward closure of the feasible periods
// ---------------------------------------------------------------------------

/// A cold one-shot joint solve of `config` with graph `graph`'s required
/// period replaced by `period`.
MappingResult cold_solve_at(model::Configuration config, Index graph,
                            double period) {
  config.mutable_task_graph(graph).set_required_period(period);
  return compute_budgets_and_buffers(config);
}

TEST(Tradeoff, MultiJobSolvesAtFeasiblePeriodsAndMinPeriodIsExact) {
  // Four 5-task jobs contending for 4 processors. The minimal period of
  // job 3 is 3.382; a KKT regularisation too large for the small pivots
  // of this system stalls the dual residual short of feas_tol on every
  // period up to ~6, so the cold solves fail and the bisection, reading
  // each failed probe as infeasible, stops at 5.10.
  gen::GenParams params;
  params.num_processors = 4;
  params.seed = 2;
  const model::Configuration config = gen::make_multi_job(4, 5, params);
  const Index graph = 3;
  const double period_hi = config.task_graph(graph).required_period();
  ASSERT_NEAR(period_hi, 13.61, 0.01);

  for (const double period : {3.40, 4.40, 5.00, 5.94}) {
    const MappingResult r = cold_solve_at(config, graph, period);
    EXPECT_EQ(r.status, solver::SolveStatus::kOptimal) << "period " << period;
    EXPECT_TRUE(r.verified) << "period " << period;
  }

  const double rel_tol = 1e-4;
  model::Configuration copy = config;
  const auto min_period =
      minimal_feasible_period(copy, graph, period_hi, rel_tol);
  ASSERT_TRUE(min_period.has_value());
  EXPECT_NEAR(min_period->period, 3.382, rel_tol * 3.382);
  EXPECT_TRUE(min_period->mapping.verified);
}

TEST(Tradeoff, FeasiblePeriodsAreUpwardClosedAcrossGeneratorFamilies) {
  // A PAS for a period is a PAS for every larger one, so once the joint
  // bisection reports a minimal period P, cold solves just above P must
  // all be optimal. Seeds 1-4 of each generator family: single-graph
  // chains, rings, split/joins and random DAGs, and multi-job systems,
  // whose every job is searched in turn.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::GenParams p4;
    p4.num_processors = 4;
    p4.seed = seed;
    gen::GenParams p6 = p4;
    p6.num_processors = 6;
    const auto s = static_cast<Index>(seed);
    const std::vector<std::pair<std::string, model::Configuration>> configs = {
        {"chain", gen::make_chain(8 + s % 24, p4)},
        {"ring", gen::make_ring(4 + s % 8, p4)},
        {"split_join", gen::make_split_join(2 + s % 3, 2 + s % 3, p4)},
        {"multi_job", gen::make_multi_job(2 + s % 3, 3 + s % 4, p4)},
        {"random_dag", gen::make_random_dag(16 + s % 32, 0.5, p6)}};
    for (const auto& [family, config] : configs) {
      for (Index graph = 0; graph < config.num_task_graphs(); ++graph) {
        const std::string context = family + " seed " + std::to_string(seed) +
                                    " graph " + std::to_string(graph);
        model::Configuration copy = config;
        const auto min_period = minimal_feasible_period(
            copy, graph, config.task_graph(graph).required_period(), 1e-4);
        ASSERT_TRUE(min_period.has_value()) << context;
        for (const double eps : {1e-4, 1e-3, 1e-2, 5e-2, 1e-1}) {
          const MappingResult r =
              cold_solve_at(config, graph, min_period->period * (1.0 + eps));
          EXPECT_EQ(r.status, solver::SolveStatus::kOptimal)
              << context << " eps " << eps;
          EXPECT_TRUE(r.verified) << context << " eps " << eps;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bbs::core
