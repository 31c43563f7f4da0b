#include "bbs/core/solver_session.hpp"

#include "bbs/common/assert.hpp"

namespace bbs::core {

SolverSession::SolverSession(const model::Configuration& config,
                             SessionOptions options)
    : options_(std::move(options)),
      config_(config),
      program_(build_algorithm1(config_, options_.build)) {}

void SolverSession::set_buffer_cap(Index graph, Index buffer, Index cap) {
  BBS_REQUIRE(cap >= 1, "SolverSession::set_buffer_cap: cap must be >= 1");
  config_.mutable_task_graph(graph).set_max_capacity(buffer, cap);
  program_.refresh_buffer_cap(config_, graph, buffer);
}

void SolverSession::set_all_buffer_caps(Index graph, Index cap) {
  const Index num_buffers = config_.task_graph(graph).num_buffers();
  for (Index b = 0; b < num_buffers; ++b) {
    set_buffer_cap(graph, b, cap);
  }
}

void SolverSession::set_required_period(Index graph, double period) {
  config_.mutable_task_graph(graph).set_required_period(period);
  program_.refresh_required_period(config_, graph);
}

void SolverSession::set_fixed_budgets(Index graph, const Vector& budgets) {
  program_.refresh_fixed_budgets(config_, graph, budgets);
}

void SolverSession::set_fixed_deltas(Index graph, const Vector& deltas) {
  program_.refresh_fixed_deltas(config_, graph, deltas);
}

MappingResult SolverSession::solve() {
  const solver::SolveResult sol =
      solver::IpmSolver(options_.mapping.ipm)
          .solve(program_.problem, workspace_, control_);
  return mapping_from_solution(config_, program_, sol, options_.mapping);
}

}  // namespace bbs::core
