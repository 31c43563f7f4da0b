#include "bbs/fuzz/fuzzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bbs/common/assert.hpp"
#include "bbs/common/rng.hpp"
#include "bbs/core/exact_reference.hpp"
#include "bbs/core/verification.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/sim/tdm_simulator.hpp"

namespace bbs::fuzz {

using linalg::Vector;

namespace {

using model::Configuration;

struct Alloc {
  std::vector<Vector> budgets;
  std::vector<std::vector<Index>> caps;
};

Alloc alloc_of(const Configuration& config, const core::MappingResult& m) {
  Alloc a;
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const auto& mg = m.graphs[static_cast<std::size_t>(gi)];
    Vector b(mg.tasks.size());
    for (std::size_t t = 0; t < mg.tasks.size(); ++t) {
      b[t] = static_cast<double>(mg.tasks[t].budget);
    }
    std::vector<Index> c(mg.buffers.size());
    for (std::size_t i = 0; i < mg.buffers.size(); ++i) {
      c[i] = mg.buffers[i].capacity;
    }
    a.budgets.push_back(std::move(b));
    a.caps.push_back(std::move(c));
  }
  return a;
}

/// The joint weighted objective evaluated on the rounded allocation —
/// identical formula to mapping_from_solution and exact_reference, so all
/// three are comparable.
double joint_rounded_cost(const Configuration& config,
                          const core::MappingResult& m) {
  double cost = 0.0;
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const model::TaskGraph& tg = config.task_graph(gi);
    const auto& mg = m.graphs[static_cast<std::size_t>(gi)];
    for (Index t = 0; t < tg.num_tasks(); ++t) {
      cost += tg.task(t).budget_weight *
              static_cast<double>(mg.tasks[static_cast<std::size_t>(t)].budget);
    }
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      const model::Buffer& buf = tg.buffer(b);
      cost += buf.size_weight * static_cast<double>(buf.container_size) *
              static_cast<double>(
                  mg.buffers[static_cast<std::size_t>(b)].capacity -
                  buf.initial_fill);
    }
  }
  return cost;
}

void add_failure(CaseResult& r, std::string msg) {
  r.passed = false;
  r.failures.push_back(std::move(msg));
}

/// Structural + self-consistency checks of one feasible mapping: the
/// verification flag, the reported objectives, grid alignment and capacity
/// bounds. `check_reported_objective` is off for two_phase results, whose
/// staged programs report phase objectives rather than the joint one.
void check_mapping(const Configuration& config, const core::MappingResult& m,
                   bool check_reported_objective, const std::string& what,
                   CaseResult& r) {
  if (!m.feasible()) return;
  if (!m.verified) {
    add_failure(r, what +
                       ": feasible mapping failed the independent "
                       "MCR/platform verification");
    return;
  }
  const double recomputed = joint_rounded_cost(config, m);
  if (check_reported_objective) {
    if (std::abs(recomputed - m.objective_rounded) >
        1e-6 * (1.0 + std::abs(recomputed))) {
      std::ostringstream os;
      os << what << ": reported rounded objective " << m.objective_rounded
         << " disagrees with the allocation's recomputed cost " << recomputed;
      add_failure(r, os.str());
    }
    if (m.objective_rounded <
        m.objective_continuous -
            1e-5 * (1.0 + std::abs(m.objective_continuous))) {
      add_failure(r, what +
                         ": rounded objective is below the continuous "
                         "optimum (rounding must be conservative)");
    }
  }
  const Index g = config.granularity();
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const model::TaskGraph& tg = config.task_graph(gi);
    const auto& mg = m.graphs[static_cast<std::size_t>(gi)];
    for (Index t = 0; t < tg.num_tasks(); ++t) {
      const Index budget = mg.tasks[static_cast<std::size_t>(t)].budget;
      if (budget <= 0 || budget % g != 0) {
        std::ostringstream os;
        os << what << ": budget " << budget << " of graph " << gi << " task "
           << t << " is off the granularity-" << g << " grid";
        add_failure(r, os.str());
      }
    }
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      const model::Buffer& buf = tg.buffer(b);
      const Index cap = mg.buffers[static_cast<std::size_t>(b)].capacity;
      if (cap < std::max<Index>(1, buf.initial_fill) ||
          (buf.max_capacity != -1 && cap > buf.max_capacity)) {
        std::ostringstream os;
        os << what << ": capacity " << cap << " of graph " << gi << " buffer "
           << b << " violates its bounds";
        add_failure(r, os.str());
      }
    }
  }
}

/// Differential oracle 1: the TDM discrete-event simulator. The dataflow
/// model is conservative for actual execution, so a verified allocation
/// must sustain the required period and stay within the PAS bound.
void check_sim(const Configuration& config, const core::MappingResult& m,
               const CaseSpec& spec, const std::string& what, CaseResult& r) {
  if (!m.feasible() || !m.verified) return;
  const Alloc a = alloc_of(config, m);
  sim::SimOptions so;
  so.iterations = 96;
  so.warmup = 32;
  so.seed = spec.params.seed;
  so.placement = (spec.variant % 2 == 0) ? sim::SlicePlacement::kContiguous
                                         : sim::SlicePlacement::kScattered;
  so.randomise_execution_times = (spec.index % 3 == 0);
  sim::SimResult sim;
  try {
    sim = sim::simulate_tdm(config, a.budgets, a.caps, so);
  } catch (const std::exception& e) {
    add_failure(r, what + ": simulator rejected a verified allocation: " +
                       e.what());
    return;
  }
  r.sim_checked = true;
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const auto& gr = sim.graphs[static_cast<std::size_t>(gi)];
    const double mu = config.task_graph(gi).required_period();
    std::ostringstream os;
    os << what << ": graph " << gi;
    if (gr.deadlocked) {
      add_failure(r, os.str() + " deadlocked under a verified allocation");
      continue;
    }
    // The PAS bound only pins the long-run rate; a finite measurement
    // window can overshoot mu when the sink ran ahead at the window start
    // and sits on the bound at its end (pronounced at bisection-minimal
    // periods, where the MCR is exactly mu). Allow that head-start,
    // amortised over the window.
    double rho_max = 0.0;
    for (Index p = 0; p < config.num_processors(); ++p) {
      rho_max =
          std::max(rho_max, config.processor(p).replenishment_interval);
    }
    const double window = static_cast<double>(so.iterations - so.warmup);
    const double slack = (rho_max + mu) / window + 1e-6;
    if (gr.measured_period > mu + slack) {
      std::ostringstream msg;
      msg << os.str() << " measured period " << gr.measured_period
          << " exceeds the required period " << mu << " beyond the "
          << "finite-window slack " << slack;
      add_failure(r, msg.str());
    }
    if (!core::simulation_within_pas_bound(
            config, gi, a.budgets[static_cast<std::size_t>(gi)],
            a.caps[static_cast<std::size_t>(gi)], gr)) {
      add_failure(r, os.str() +
                         " execution trace exceeds the PAS "
                         "conservativeness bound");
    }
  }
}

/// Differential oracle 2: the exhaustive integer reference on small
/// instances. Only definite verdicts are used — a truncated search says
/// nothing. The verified allocation lies inside the exact search space
/// (its caps respect the shared ceiling, its budgets the replenishment
/// bounds), so exact-kInfeasible contradicts it, and the exact optimum can
/// never cost more than it does. SOCP-infeasible alongside exact-feasible
/// is NOT flagged: the SOCP constraints are sufficient, not necessary.
void check_exact(const Configuration& config, const core::MappingResult* m,
                 const CaseSpec& spec, const std::string& what,
                 CaseResult& r) {
  if (config.total_tasks() > 4 || config.total_buffers() > 3) return;
  core::ExactSearchLimits lim;
  lim.max_capacity = spec.max_capacity;
  lim.max_combinations = 50000;
  core::ExactOutcome outcome;
  try {
    outcome = core::exact_reference_outcome(config, lim);
  } catch (const std::exception& e) {
    add_failure(r, what + ": exact reference threw: " + e.what());
    return;
  }
  if (outcome.status == core::ExactStatus::kTruncated) return;
  r.exact_checked = true;
  const bool have = m != nullptr && m->feasible() && m->verified;
  if (!have) return;
  if (outcome.status == core::ExactStatus::kInfeasible) {
    add_failure(r, what +
                       ": exhaustive search proves infeasibility, but the "
                       "engine returned a verified feasible mapping");
    return;
  }
  const double rounded = joint_rounded_cost(config, *m);
  if (outcome.solution->cost > rounded + 1e-6 * (1.0 + std::abs(rounded))) {
    std::ostringstream os;
    os << what << ": verified rounded allocation costs " << rounded
       << ", less than the exhaustive integer optimum "
       << outcome.solution->cost;
    add_failure(r, os.str());
  }
}

Index total_tasks_estimate(const CaseSpec& spec) {
  switch (spec.family) {
    case Family::kChain:
    case Family::kRing:
    case Family::kRandomDag:
      return spec.size_a;
    case Family::kSplitJoin:
      return spec.size_a * spec.size_b + 2;
    case Family::kMultiJob:
      return spec.size_a * spec.size_b;
  }
  return spec.size_a;
}

}  // namespace

const char* to_string(Family family) {
  switch (family) {
    case Family::kChain: return "chain";
    case Family::kRing: return "ring";
    case Family::kSplitJoin: return "split_join";
    case Family::kRandomDag: return "random_dag";
    case Family::kMultiJob: return "multi_job";
  }
  return "unknown";
}

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kSolve: return "solve";
    case RequestKind::kSweep: return "sweep";
    case RequestKind::kMinPeriod: return "min_period";
    case RequestKind::kTwoPhase: return "two_phase";
    case RequestKind::kLatency: return "latency";
  }
  return "unknown";
}

CaseSpec make_case(std::uint64_t seed, std::uint64_t index) {
  CaseSpec spec;
  spec.seed = seed;
  spec.index = index;
  // Disjoint per-case streams: the Rng's SplitMix seeding decorrelates
  // consecutive values, so a simple affine mix of (seed, index) suffices.
  Rng rng(seed + 0x9E3779B97F4A7C15ull * (index + 1));

  spec.family = static_cast<Family>(rng.next_int(0, 4));
  switch (spec.family) {
    case Family::kChain:
      spec.size_a = static_cast<Index>(rng.next_int(2, 6));
      break;
    case Family::kRing:
      spec.size_a = static_cast<Index>(rng.next_int(2, 5));
      break;
    case Family::kSplitJoin:
      spec.size_a = static_cast<Index>(rng.next_int(2, 3));
      spec.size_b = static_cast<Index>(rng.next_int(1, 2));
      break;
    case Family::kRandomDag:
      spec.size_a = static_cast<Index>(rng.next_int(3, 6));
      spec.extra_edge_fraction = rng.next_real(0.2, 1.0);
      break;
    case Family::kMultiJob:
      spec.size_a = static_cast<Index>(rng.next_int(2, 3));
      spec.size_b = static_cast<Index>(rng.next_int(2, 3));
      break;
  }

  gen::GenParams p;
  p.num_processors = static_cast<Index>(rng.next_int(2, 4));
  p.wcet_lo = rng.next_real(0.3, 1.0);
  p.wcet_hi = p.wcet_lo + rng.next_real(0.5, 2.0);
  p.feasible_margin = rng.next_real(1.3, 2.2);
  const double bw[] = {1e-3, 0.05, 1.0};
  p.buffer_weight = bw[rng.next_int(0, 2)];
  p.scheduling_overhead = rng.next_bool(0.3) ? rng.next_real(0.2, 1.0) : 0.0;
  p.seed = rng.next_u64();
  spec.params = p;

  spec.max_capacity = static_cast<Index>(rng.next_int(3, 6));
  const std::int64_t k = rng.next_int(0, 9);
  spec.kind = k <= 3   ? RequestKind::kSolve
              : k <= 5 ? RequestKind::kSweep
              : k == 6 ? RequestKind::kMinPeriod
              : k <= 8 ? RequestKind::kTwoPhase
                       : RequestKind::kLatency;
  spec.variant = static_cast<Index>(rng.next_int(0, 3));

  spec.extreme_wcet = rng.next_bool(0.2);
  const double interval_draw = rng.next_double();
  spec.tiny_interval = interval_draw < 0.12;
  spec.huge_interval = !spec.tiny_interval && interval_draw < 0.24;
  spec.granularity_stress = rng.next_bool(0.2);
  spec.near_infeasible = rng.next_bool(0.2);
  return spec;
}

gen::GenParams effective_params(const CaseSpec& spec) {
  gen::GenParams p = spec.params;
  if (spec.extreme_wcet) {
    p.wcet_lo = 0.02;
    p.wcet_hi = 30.0;
  }
  if (spec.granularity_stress) {
    p.granularity = 3 + static_cast<Index>(spec.index % 5);
  }
  if (spec.near_infeasible) {
    p.feasible_margin =
        1.01 + 0.008 * static_cast<double>(spec.index % 5);
  }
  if (spec.huge_interval) p.replenishment_interval = 2e4;
  // Over-subscription floor: the generators assert a positive fair budget
  // share (rho - o - g*n)/n per processor. With rho >= o + 2*g*n + g the
  // share is at least g*(n+1)/n > 0, so the adversarial "tiny interval"
  // mutation sits exactly on this floor instead of crashing the generator.
  const Index total = total_tasks_estimate(spec);
  const double max_load = std::ceil(static_cast<double>(total) /
                                    static_cast<double>(p.num_processors));
  const double g = static_cast<double>(p.granularity);
  const double floor_rho = p.scheduling_overhead + 2.0 * g * max_load + g;
  if (spec.tiny_interval) {
    p.replenishment_interval = floor_rho;
  } else {
    p.replenishment_interval = std::max(p.replenishment_interval, floor_rho);
  }
  return p;
}

model::Configuration build_configuration(const CaseSpec& spec) {
  const gen::GenParams p = effective_params(spec);
  model::Configuration config = [&] {
    switch (spec.family) {
      case Family::kChain:
        return gen::make_chain(std::max<Index>(1, spec.size_a), p);
      case Family::kRing:
        return gen::make_ring(std::max<Index>(2, spec.size_a), p);
      case Family::kSplitJoin:
        return gen::make_split_join(std::max<Index>(1, spec.size_a),
                                    std::max<Index>(1, spec.size_b), p);
      case Family::kRandomDag:
        return gen::make_random_dag(std::max<Index>(2, spec.size_a),
                                    spec.extra_edge_fraction, p);
      case Family::kMultiJob:
        return gen::make_multi_job(std::max<Index>(1, spec.size_a),
                                   std::max<Index>(1, spec.size_b), p);
    }
    return gen::make_chain(2, p);
  }();
  // A uniform finite capacity ceiling on every buffer: it matches the
  // SOCP's search space to the exact oracle's and stresses the capacity
  // coupling (back-pressure) everywhere.
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    model::TaskGraph& tg = config.mutable_task_graph(gi);
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      const Index fill = tg.buffer(b).initial_fill;
      tg.set_max_capacity(
          b, std::max<Index>(spec.max_capacity, std::max<Index>(1, fill)));
    }
  }
  return config;
}

api::Request build_request(const CaseSpec& spec) {
  api::Request request;
  std::ostringstream id;
  id << "fuzz-" << spec.seed << "-" << spec.index;
  request.id = id.str();
  request.options.verify = true;
  model::Configuration config = build_configuration(spec);
  switch (spec.kind) {
    case RequestKind::kSolve:
      request.payload = api::SolveRequest{std::move(config)};
      break;
    case RequestKind::kSweep: {
      api::SweepRequest sweep;
      sweep.graph = 0;
      sweep.cap_lo = 2;
      sweep.cap_hi = spec.max_capacity + 1;
      sweep.configuration = std::move(config);
      request.payload = std::move(sweep);
      break;
    }
    case RequestKind::kMinPeriod: {
      api::MinPeriodRequest mp;
      mp.graph = 0;
      mp.period_hi = config.task_graph(0).required_period();
      mp.rel_tol = 1e-3;
      mp.flow = (spec.variant % 2 == 0) ? api::MinPeriodRequest::Flow::kJoint
                                        : api::MinPeriodRequest::Flow::kBudgetFirst;
      mp.configuration = std::move(config);
      request.payload = std::move(mp);
      break;
    }
    case RequestKind::kTwoPhase: {
      api::TwoPhaseRequest tp;
      tp.mode = (spec.variant % 2 == 0)
                    ? api::TwoPhaseRequest::Mode::kBudgetFirst
                    : api::TwoPhaseRequest::Mode::kBufferFirst;
      tp.cap_lo = spec.max_capacity;
      tp.cap_hi = -1;
      tp.configuration = std::move(config);
      request.payload = std::move(tp);
      break;
    }
    case RequestKind::kLatency: {
      api::LatencyRequest lat;
      lat.graph = -1;
      lat.configuration = std::move(config);
      request.payload = std::move(lat);
      break;
    }
  }
  return request;
}

std::string case_label(const CaseSpec& spec) {
  std::ostringstream os;
  os << "seed=" << spec.seed << " index=" << spec.index << " "
     << to_string(spec.family) << "/" << spec.size_a;
  if (spec.family == Family::kSplitJoin || spec.family == Family::kMultiJob) {
    os << "x" << spec.size_b;
  }
  os << " kind=" << to_string(spec.kind)
     << " procs=" << spec.params.num_processors << " cap=" << spec.max_capacity;
  std::string flags;
  if (spec.extreme_wcet) flags += "wcet!,";
  if (spec.tiny_interval) flags += "rho-,";
  if (spec.huge_interval) flags += "rho+,";
  if (spec.granularity_stress) flags += "g!,";
  if (spec.near_infeasible) flags += "margin~,";
  if (!flags.empty()) {
    flags.pop_back();
    os << " [" << flags << "]";
  }
  return os.str();
}

CaseResult run_request_checks(api::Engine& engine, const CaseSpec& spec,
                              const api::Request& request,
                              const FuzzOptions& options) {
  CaseResult r;
  r.spec = spec;
  solver::SolveControl control;
  if (options.inject_fail_first) {
    control.fail_at_iteration = 0;
    control.fail_only_first_attempt = true;
  }

  api::Response resp;
  try {
    resp = engine.run(request, control);
  } catch (const std::exception& e) {
    add_failure(r, std::string("engine.run threw (it must return error "
                               "responses instead): ") +
                       e.what());
    return r;
  }
  r.recovered_solves = resp.diagnostics.recovered_solves;

  if (resp.status == api::ResponseStatus::kError) {
    if (resp.error_code == api::ErrorCode::kNumericalFailure) {
      // A structured numerical failure is the designed answer for
      // instances the IPM (and its recovery ladder) cannot crack — it is
      // counted, not flagged.
      r.numerical_failure = true;
    } else {
      r.engine_error = true;
      add_failure(r, std::string("error response (") +
                         api::to_string(resp.error_code) + "): " + resp.error);
    }
    return r;
  }
  if (resp.status == api::ResponseStatus::kInfeasible) {
    r.infeasible = true;
    return r;
  }

  const Configuration& config = request.configuration();
  switch (spec.kind) {
    case RequestKind::kSolve: {
      core::MappingResult m = std::get<api::SolvePayload>(resp.payload).mapping;
      if (options.inject_known_bad && m.feasible()) {
        m.objective_rounded -= 1.0;
      }
      check_mapping(config, m, /*check_reported_objective=*/true, "solve", r);
      if (options.run_sim_oracle) check_sim(config, m, spec, "solve", r);
      if (options.run_exact_oracle) check_exact(config, &m, spec, "solve", r);
      break;
    }
    case RequestKind::kSweep: {
      const core::TradeoffSweep& sweep =
          std::get<api::SweepPayload>(resp.payload).sweep;
      for (const core::TradeoffPoint& pt : sweep.points) {
        if (!pt.feasible) continue;
        std::ostringstream what;
        what << "sweep point cap=" << pt.max_capacity;
        for (const Index cap : pt.capacities) {
          if (cap > pt.max_capacity) {
            add_failure(r, what.str() + ": chosen capacity exceeds the bound");
            break;
          }
        }
        Vector budgets(pt.budgets.size());
        for (std::size_t i = 0; i < pt.budgets.size(); ++i) {
          budgets[i] = static_cast<double>(pt.budgets[i]);
        }
        const core::GraphVerification v =
            core::verify_graph(config, 0, budgets, pt.capacities);
        if (!v.throughput_met) {
          add_failure(r, what.str() +
                             ": rounded point fails the independent MCR "
                             "check");
        }
      }
      // Self-consistency: the point at the configured capacity bound and a
      // plain solve answer the same SOCP. Skipped for near-infeasible
      // margins, where the two code paths may legitimately land on
      // opposite sides of the feasibility tolerance.
      if (!spec.near_infeasible) {
        const core::TradeoffPoint* at_cap = nullptr;
        for (const core::TradeoffPoint& pt : sweep.points) {
          if (pt.max_capacity == spec.max_capacity) at_cap = &pt;
        }
        if (at_cap != nullptr) {
          api::Request solve_req;
          solve_req.id = request.id + "-xcheck";
          solve_req.options = request.options;
          solve_req.payload = api::SolveRequest{config};
          const api::Response solved = engine.run(solve_req, control);
          const bool solve_feasible =
              solved.status == api::ResponseStatus::kOk;
          if (at_cap->feasible != solve_feasible) {
            add_failure(r,
                        "sweep and solve disagree on feasibility at the "
                        "same capacity bound");
          } else if (at_cap->feasible && solve_feasible) {
            const core::MappingResult& m =
                std::get<api::SolvePayload>(solved.payload).mapping;
            double solve_total = 0.0;
            for (const core::TaskAllocation& t : m.graphs.front().tasks) {
              solve_total += t.budget_continuous;
            }
            if (std::abs(solve_total - at_cap->total_budget_continuous) >
                1e-3 * (1.0 + std::abs(solve_total))) {
              std::ostringstream os;
              os << "sweep total budget " << at_cap->total_budget_continuous
                 << " disagrees with the plain solve's " << solve_total
                 << " at the same capacity bound";
              add_failure(r, os.str());
            }
          }
        }
      }
      break;
    }
    case RequestKind::kMinPeriod: {
      const api::MinPeriodPayload& mp =
          std::get<api::MinPeriodPayload>(resp.payload);
      if (!mp.found) {
        r.infeasible = true;
        break;
      }
      const auto& req_payload = std::get<api::MinPeriodRequest>(request.payload);
      if (mp.period > req_payload.period_hi * (1.0 + 1e-9)) {
        add_failure(r, "min_period returned a period above its search bound");
        break;
      }
      // Re-anchor the configuration at the found period so every oracle
      // judges the mapping against the throughput it was solved for.
      Configuration tight = config;
      tight.mutable_task_graph(req_payload.graph)
          .set_required_period(mp.period);
      check_mapping(tight, mp.mapping, /*check_reported_objective=*/true,
                    "min_period", r);
      if (options.run_sim_oracle) {
        check_sim(tight, mp.mapping, spec, "min_period", r);
      }
      if (options.run_exact_oracle) {
        check_exact(tight, &mp.mapping, spec, "min_period", r);
      }
      break;
    }
    case RequestKind::kTwoPhase: {
      const api::TwoPhasePayload& tp =
          std::get<api::TwoPhasePayload>(resp.payload);
      bool deep_checked = false;
      for (std::size_t i = 0; i < tp.mappings.size(); ++i) {
        const core::MappingResult& m = tp.mappings[i];
        if (!m.feasible()) continue;
        std::ostringstream what;
        what << "two_phase[" << i << "]";
        check_mapping(config, m, /*check_reported_objective=*/false,
                      what.str(), r);
        if (!deep_checked) {
          // The sim and exact oracles are the expensive ones; one staged
          // mapping per case is enough signal.
          if (options.run_sim_oracle) check_sim(config, m, spec, what.str(), r);
          if (options.run_exact_oracle) {
            check_exact(config, &m, spec, what.str(), r);
          }
          deep_checked = true;
        }
      }
      break;
    }
    case RequestKind::kLatency: {
      const api::LatencyPayload& lp =
          std::get<api::LatencyPayload>(resp.payload);
      check_mapping(config, lp.mapping, /*check_reported_objective=*/true,
                    "latency", r);
      if (options.run_sim_oracle) check_sim(config, lp.mapping, spec,
                                            "latency", r);
      if (options.run_exact_oracle) {
        check_exact(config, &lp.mapping, spec, "latency", r);
      }
      if (lp.mapping.feasible() && lp.mapping.verified) {
        for (const api::LatencyPayload::GraphBound& gb : lp.graphs) {
          std::ostringstream what;
          what << "latency graph " << gb.graph;
          if (!gb.has_pas) {
            // A verified mapping sustains mu, so a PAS at mu exists — the
            // latency bound may never be "missing" for it.
            add_failure(r, what.str() +
                               ": verified mapping reported as admitting "
                               "no PAS");
            continue;
          }
          double worst = 0.0;
          bool pair_ok = true;
          for (const core::LatencyBound& lb : gb.latency.pairs) {
            if (!std::isfinite(lb.latency) || lb.latency < 0.0) {
              add_failure(r, what.str() + ": non-finite or negative bound");
              pair_ok = false;
              break;
            }
            worst = std::max(worst, lb.latency);
          }
          if (pair_ok &&
              std::abs(worst - gb.latency.worst) > 1e-9 * (1.0 + worst)) {
            add_failure(r, what.str() +
                               ": worst-case latency disagrees with the "
                               "maximum over pairs");
          }
        }
      }
      break;
    }
  }
  return r;
}

CaseResult run_case(api::Engine& engine, const CaseSpec& spec,
                    const FuzzOptions& options) {
  return run_request_checks(engine, spec, build_request(spec), options);
}

CaseSpec shrink_case(api::Engine& engine, const CaseSpec& failing,
                     const FuzzOptions& options) {
  const auto still_fails = [&](const CaseSpec& candidate) {
    try {
      return !run_case(engine, candidate, options).passed;
    } catch (const std::exception&) {
      // A candidate that crashes the pipeline outright is at least as
      // interesting as the original failure.
      return true;
    }
  };

  const Index min_a = failing.family == Family::kRing       ? 2
                      : failing.family == Family::kRandomDag ? 2
                      : failing.family == Family::kChain     ? 1
                                                             : 1;
  CaseSpec best = failing;
  int budget = options.max_shrink_runs;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    std::vector<CaseSpec> candidates;
    if (best.size_a > min_a) {
      CaseSpec c = best;
      --c.size_a;
      candidates.push_back(c);
    }
    if (best.size_b > 1) {
      CaseSpec c = best;
      --c.size_b;
      candidates.push_back(c);
    }
    if (best.params.num_processors > 2) {
      CaseSpec c = best;
      --c.params.num_processors;
      candidates.push_back(c);
    }
    if (best.family == Family::kRandomDag && best.extra_edge_fraction > 0.0) {
      CaseSpec c = best;
      c.extra_edge_fraction = 0.0;
      candidates.push_back(c);
    }
    if (best.max_capacity > 2) {
      CaseSpec c = best;
      --c.max_capacity;
      candidates.push_back(c);
    }
    const auto clear_flag = [&](bool CaseSpec::*flag) {
      if (best.*flag) {
        CaseSpec c = best;
        c.*flag = false;
        candidates.push_back(c);
      }
    };
    clear_flag(&CaseSpec::extreme_wcet);
    clear_flag(&CaseSpec::tiny_interval);
    clear_flag(&CaseSpec::huge_interval);
    clear_flag(&CaseSpec::granularity_stress);
    clear_flag(&CaseSpec::near_infeasible);

    for (const CaseSpec& candidate : candidates) {
      if (budget <= 0) break;
      --budget;
      if (still_fails(candidate)) {
        best = candidate;
        progress = true;
        break;
      }
    }
  }
  return best;
}

FuzzSummary run_fuzz(const FuzzOptions& options) {
  FuzzSummary summary;
  api::Engine engine;
  for (std::uint64_t i = 0; i < options.cases; ++i) {
    const CaseSpec spec = make_case(options.seed, i);
    CaseResult result;
    try {
      result = run_case(engine, spec, options);
    } catch (const std::exception& e) {
      result.spec = spec;
      result.passed = false;
      result.failures = {std::string("unhandled exception: ") + e.what()};
    }
    ++summary.cases;
    if (result.numerical_failure) ++summary.numerical_failures;
    if (result.infeasible) ++summary.infeasible;
    if (result.exact_checked) ++summary.exact_checked;
    if (result.sim_checked) ++summary.sim_checked;
    if (options.verbosity >= 2) {
      std::fprintf(stderr, "[fuzz] %s: %s\n", case_label(spec).c_str(),
                   result.passed ? "ok" : "FAIL");
    }
    if (result.passed) {
      ++summary.passed;
      continue;
    }
    ++summary.failed;
    CaseSpec shrunk = spec;
    CaseResult shrunk_result = result;
    if (options.shrink) {
      shrunk = shrink_case(engine, spec, options);
      try {
        CaseResult rerun = run_case(engine, shrunk, options);
        if (!rerun.passed) shrunk_result = rerun;
      } catch (const std::exception&) {
        // Keep the original failure record.
      }
    }
    const std::string line =
        case_label(shrunk) + ": " +
        (shrunk_result.failures.empty() ? "unknown failure"
                                        : shrunk_result.failures.front());
    summary.failure_lines.push_back(line);
    if (options.verbosity >= 1) {
      std::fprintf(stderr, "[fuzz] FAIL %s\n", line.c_str());
    }
    if (!options.corpus_dir.empty()) {
      try {
        summary.reproducers.push_back(
            write_reproducer(shrunk, shrunk_result, options.corpus_dir));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[fuzz] could not write reproducer: %s\n",
                     e.what());
      }
    }
  }
  summary.recovered_solves = engine.stats().recovered_solves;
  return summary;
}

io::JsonValue case_spec_to_json_value(const CaseSpec& spec) {
  io::JsonObject doc;
  doc["seed"] = io::JsonValue(static_cast<double>(spec.seed));
  doc["index"] = io::JsonValue(static_cast<double>(spec.index));
  doc["family"] = io::JsonValue(to_string(spec.family));
  doc["size_a"] = io::JsonValue(static_cast<double>(spec.size_a));
  doc["size_b"] = io::JsonValue(static_cast<double>(spec.size_b));
  doc["extra_edge_fraction"] = io::JsonValue(spec.extra_edge_fraction);
  doc["max_capacity"] = io::JsonValue(static_cast<double>(spec.max_capacity));
  doc["kind"] = io::JsonValue(to_string(spec.kind));
  doc["variant"] = io::JsonValue(static_cast<double>(spec.variant));
  io::JsonObject params;
  params["num_processors"] =
      io::JsonValue(static_cast<double>(spec.params.num_processors));
  params["replenishment_interval"] =
      io::JsonValue(spec.params.replenishment_interval);
  params["scheduling_overhead"] =
      io::JsonValue(spec.params.scheduling_overhead);
  params["wcet_lo"] = io::JsonValue(spec.params.wcet_lo);
  params["wcet_hi"] = io::JsonValue(spec.params.wcet_hi);
  params["feasible_margin"] = io::JsonValue(spec.params.feasible_margin);
  params["buffer_weight"] = io::JsonValue(spec.params.buffer_weight);
  params["granularity"] =
      io::JsonValue(static_cast<double>(spec.params.granularity));
  // 64-bit seeds do not survive the double-typed JSON number model; a
  // decimal string round-trips exactly.
  params["gen_seed"] = io::JsonValue(std::to_string(spec.params.seed));
  doc["params"] = io::JsonValue(std::move(params));
  io::JsonObject mutations;
  mutations["extreme_wcet"] = io::JsonValue(spec.extreme_wcet);
  mutations["tiny_interval"] = io::JsonValue(spec.tiny_interval);
  mutations["huge_interval"] = io::JsonValue(spec.huge_interval);
  mutations["granularity_stress"] = io::JsonValue(spec.granularity_stress);
  mutations["near_infeasible"] = io::JsonValue(spec.near_infeasible);
  doc["mutations"] = io::JsonValue(std::move(mutations));
  return io::JsonValue(std::move(doc));
}

CaseSpec case_spec_from_json_value(const io::JsonValue& doc) {
  const io::JsonObject& obj = doc.as_object();
  CaseSpec spec;
  spec.seed = static_cast<std::uint64_t>(obj.at("seed").as_number());
  spec.index = static_cast<std::uint64_t>(obj.at("index").as_number());
  const std::string& family = obj.at("family").as_string();
  if (family == "chain") spec.family = Family::kChain;
  else if (family == "ring") spec.family = Family::kRing;
  else if (family == "split_join") spec.family = Family::kSplitJoin;
  else if (family == "random_dag") spec.family = Family::kRandomDag;
  else if (family == "multi_job") spec.family = Family::kMultiJob;
  else throw ModelError("fuzz reproducer: unknown family '" + family + "'");
  spec.size_a = static_cast<Index>(obj.at("size_a").as_number());
  spec.size_b = static_cast<Index>(obj.at("size_b").as_number());
  spec.extra_edge_fraction = obj.at("extra_edge_fraction").as_number();
  spec.max_capacity = static_cast<Index>(obj.at("max_capacity").as_number());
  const std::string& kind = obj.at("kind").as_string();
  if (kind == "solve") spec.kind = RequestKind::kSolve;
  else if (kind == "sweep") spec.kind = RequestKind::kSweep;
  else if (kind == "min_period") spec.kind = RequestKind::kMinPeriod;
  else if (kind == "two_phase") spec.kind = RequestKind::kTwoPhase;
  else if (kind == "latency") spec.kind = RequestKind::kLatency;
  else throw ModelError("fuzz reproducer: unknown kind '" + kind + "'");
  spec.variant = static_cast<Index>(obj.at("variant").as_number());
  const io::JsonObject& params = obj.at("params").as_object();
  spec.params.num_processors =
      static_cast<Index>(params.at("num_processors").as_number());
  spec.params.replenishment_interval =
      params.at("replenishment_interval").as_number();
  spec.params.scheduling_overhead =
      params.at("scheduling_overhead").as_number();
  spec.params.wcet_lo = params.at("wcet_lo").as_number();
  spec.params.wcet_hi = params.at("wcet_hi").as_number();
  spec.params.feasible_margin = params.at("feasible_margin").as_number();
  spec.params.buffer_weight = params.at("buffer_weight").as_number();
  spec.params.granularity =
      static_cast<Index>(params.at("granularity").as_number());
  spec.params.seed = std::stoull(params.at("gen_seed").as_string());
  const io::JsonObject& mutations = obj.at("mutations").as_object();
  spec.extreme_wcet = mutations.at("extreme_wcet").as_bool();
  spec.tiny_interval = mutations.at("tiny_interval").as_bool();
  spec.huge_interval = mutations.at("huge_interval").as_bool();
  spec.granularity_stress = mutations.at("granularity_stress").as_bool();
  spec.near_infeasible = mutations.at("near_infeasible").as_bool();
  return spec;
}

std::string write_reproducer(const CaseSpec& spec, const CaseResult& result,
                             const std::string& corpus_dir) {
  std::filesystem::create_directories(corpus_dir);
  std::ostringstream name;
  name << "fuzz-" << spec.seed << "-" << spec.index << ".json";
  const std::filesystem::path path =
      std::filesystem::path(corpus_dir) / name.str();

  io::JsonObject doc;
  doc["schema_version"] = io::JsonValue(1);
  doc["tool"] = io::JsonValue("bbs_fuzz");
  doc["label"] = io::JsonValue(case_label(spec));
  doc["case"] = case_spec_to_json_value(spec);
  // The stored request is the replay's source of truth: it stays
  // meaningful even if the generators drift in a later version.
  doc["request"] = io::request_to_json_value(build_request(spec));
  io::JsonArray failures;
  for (const std::string& f : result.failures) {
    failures.push_back(io::JsonValue(f));
  }
  doc["failures"] = io::JsonValue(std::move(failures));
  doc["replay"] =
      io::JsonValue("bbs_fuzz --replay " + path.string());

  std::ofstream out(path);
  if (!out) {
    throw ModelError("fuzz: cannot write reproducer " + path.string());
  }
  out << io::write_json(io::JsonValue(std::move(doc)));
  return path.string();
}

CaseResult replay_file(const std::string& path, const FuzzOptions& options) {
  std::ifstream in(path);
  if (!in) throw ModelError("fuzz: cannot open reproducer " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const io::JsonValue doc = io::parse_json(text.str());
  const io::JsonObject& obj = doc.as_object();
  const CaseSpec spec = case_spec_from_json_value(obj.at("case"));
  const api::Request request = io::request_from_json_value(obj.at("request"));
  api::Engine engine;
  return run_request_checks(engine, spec, request, options);
}

}  // namespace bbs::fuzz
