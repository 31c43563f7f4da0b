// In-process, single-thread replay of a workload's requests through the
// library's public layer functions, with spans recorded around each call.
//
// Per request, two passes:
//   1. the service path one daemon worker runs: io::request_from_json ->
//      api::request_structure_key -> api::Engine::run -> response
//      serialisation (answers checked against the cold reference);
//   2. a decomposition of the engine's work into the core/solver calls it
//      makes: program build on a miss, in-place parameter refresh, the IPM
//      solve, rounding, verification, latency bounds, and the search
//      drivers. Spans of the calls the engine really makes for this request
//      kind sum to the covered share of api.engine_run_us; the rest are
//      probes (marked so), which keep every layer measured on every
//      workload.
// Distinct structures additionally get a KKT kernel probe at their final
// iterate. Spans are kept in memory and written out at the end.
#include <algorithm>
#include <fstream>
#include <memory>
#include <type_traits>
#include <unordered_map>

#include "answers.hpp"
#include "bbs/api/engine.hpp"
#include "bbs/core/latency.hpp"
#include "bbs/core/solver_session.hpp"
#include "bbs/core/tradeoff.hpp"
#include "bbs/core/two_phase.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/solver/kkt_system.hpp"
#include "bbs/solver/nt_scaling.hpp"
#include "driver.hpp"
#include "workloads.hpp"

namespace servebench {

namespace {

using bbs::api::Index;
using bbs::model::Configuration;

enum Layer : std::uint8_t {
  kRequest,
  kParse,
  kKey,
  kEngineRun,
  kSerialise,
  kBuild,
  kRefresh,
  kIpm,
  kRound,
  kVerify,
  kLatency,
  kDriver,
  kKktFactorise,
  kKktSolve,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "request",     "io.parse",     "api.key",      "api.engine_run",
    "io.serialise", "core.build",  "core.refresh", "solver.ipm",
    "core.round",  "core.verify",  "core.latency", "core.driver",
    "solver.kkt_factorise", "solver.kkt_solve"};

struct Span {
  std::uint32_t request = 0;
  Layer layer = kRequest;
  bool probe = false;
  double start_us = 0.0;
  double dur_us = 0.0;
};

class Recorder {
 public:
  explicit Recorder(Clock::time_point origin) : origin_(origin) {
    std::fill(std::begin(last_request_), std::end(last_request_), ~0u);
  }

  /// Runs fn() inside a span and returns its result.
  template <class Fn>
  auto time(Layer layer, bool probe, Fn&& fn) {
    const auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(layer, probe, start, Clock::now());
    } else {
      auto result = fn();
      add(layer, probe, start, Clock::now());
      return result;
    }
  }

  void add(Layer layer, bool probe, Clock::time_point start,
           Clock::time_point end) {
    Span s;
    s.request = request_;
    s.layer = layer;
    s.probe = probe;
    s.start_us = us(start - origin_);
    s.dur_us = us(end - start);
    spans_.push_back(s);
    total_us_[layer] += s.dur_us;
    if (last_request_[layer] != request_) {
      last_request_[layer] = request_;
      ++requests_[layer];
    }
    if (!probe && layer >= kKey && layer != kEngineRun && layer != kSerialise &&
        layer <= kDriver) {
      covered_us_ += s.dur_us;
    }
  }

  void begin_request(std::uint32_t request) { request_ = request; }

  /// Span time per replayed request that made the call (a request may
  /// call a layer more than once, e.g. a driver kind's budget derivation
  /// and its search).
  double mean_us(Layer layer) const {
    return requests_[layer] > 0 ? total_us_[layer] / requests_[layer] : 0.0;
  }
  double total_us(Layer layer) const { return total_us_[layer]; }
  double covered_us() const { return covered_us_; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"request\":" << s.request << ",\"span\":\""
          << kLayerNames[s.layer] << "\",\"parent\":\""
          << (s.layer == kRequest ? "" : "request") << "\",\"probe\":"
          << (s.probe ? "true" : "false") << ",\"start_us\":" << s.start_us
          << ",\"dur_us\":" << s.dur_us << "}\n";
    }
  }

 private:
  static double us(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }

  Clock::time_point origin_;
  std::uint32_t request_ = 0;
  std::vector<Span> spans_;
  double total_us_[kNumLayers] = {};
  double requests_[kNumLayers] = {};
  std::uint32_t last_request_[kNumLayers] = {};
  double covered_us_ = 0.0;
};

/// Program + workspace of one structure on the single-solve path: what a
/// pooled core::SolverSession holds, taken apart so each call is timed.
struct SolveSlot {
  Configuration config;
  bbs::core::BuiltProgram program;
  bbs::solver::IpmSolver ipm;
  bbs::solver::IpmWorkspace workspace;
  bool kkt_probed = false;
};

struct KktProbe {
  double factorise_us = 0.0;
  double solve_us = 0.0;
  double factor_nnz = 0.0;
};

/// Times KktSystem::factorise and ::solve at the final iterate of a
/// structure's first optimal solve, on the unequilibrated G. An estimate
/// of the per-call kernel cost inside the IPM, which factorises the
/// equilibrated copy.
std::optional<KktProbe> probe_kkt(const bbs::solver::ConicProblem& problem,
                                  const bbs::solver::SolveResult& solution,
                                  Recorder& rec) {
  constexpr int kReps = 5;
  try {
    bbs::solver::NtScaling scaling(problem.cone());
    scaling.update(solution.s, solution.z);
    bbs::solver::KktSystem kkt(problem.g());
    kkt.factorise(scaling);  // the one-time symbolic analysis
    std::vector<double> factorise, solve;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      kkt.factorise(scaling);
      const auto t1 = Clock::now();
      rec.add(kKktFactorise, true, t0, t1);
      factorise.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    const bbs::linalg::Vector p(static_cast<std::size_t>(problem.num_vars()),
                                1.0);
    const bbs::linalg::Vector q(static_cast<std::size_t>(problem.num_rows()),
                                1.0);
    bbs::linalg::Vector u, v;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      kkt.solve(scaling, p, q, u, v);
      const auto t1 = Clock::now();
      rec.add(kKktSolve, true, t0, t1);
      solve.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    return KktProbe{median(factorise), median(solve),
                    static_cast<double>(kkt.factor_nnz())};
  } catch (const std::exception&) {
    return std::nullopt;  // final iterate on the cone boundary
  }
}

class Decomposer {
 public:
  explicit Decomposer(Recorder& rec) : rec_(rec) {}

  /// The single-solve path (real for solve/latency requests, a probe for
  /// the driver kinds).
  void solve_path(const Configuration& config,
                  const bbs::api::RequestOptions& opts, bool with_latency,
                  bool probe) {
    bbs::api::Request keyed;
    keyed.options = opts;
    keyed.payload = bbs::api::SolveRequest{config};
    const std::string key = bbs::api::request_structure_key(keyed);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      if (slots_.size() >= 64) slots_.clear();
      auto slot = rec_.time(kBuild, probe, [&] {
        return std::make_unique<SolveSlot>(SolveSlot{
            config, bbs::core::build_algorithm1(config),
            bbs::solver::IpmSolver(opts.ipm), {}, false});
      });
      it = slots_.emplace(key, std::move(slot)).first;
    }
    SolveSlot& slot = *it->second;
    rec_.time(kRefresh, probe, [&] {
      for (Index g = 0; g < config.num_task_graphs(); ++g) {
        const auto& tg = config.task_graph(g);
        slot.config.mutable_task_graph(g).set_required_period(
            tg.required_period());
        slot.program.refresh_required_period(slot.config, g);
        for (Index b = 0; b < tg.num_buffers(); ++b) {
          const Index cap = tg.buffer(b).max_capacity;
          if (cap == -1) continue;
          slot.config.mutable_task_graph(g).set_max_capacity(b, cap);
          slot.program.refresh_buffer_cap(slot.config, g, b);
        }
      }
    });
    const bbs::solver::SolveResult sol = rec_.time(kIpm, probe, [&] {
      return slot.ipm.solve(slot.program.problem, slot.workspace);
    });
    ipm_iterations_ += sol.iterations;
    bbs::core::MappingOptions mapping_options;
    mapping_options.ipm = opts.ipm;
    mapping_options.verify = false;
    mapping_options.rounding_eps = opts.rounding_eps;
    bbs::core::MappingResult mapping = rec_.time(kRound, probe, [&] {
      return bbs::core::mapping_from_solution(slot.config, slot.program, sol,
                                              mapping_options);
    });
    if (!mapping.feasible()) return;
    rec_.time(kVerify, probe, [&] {
      bbs::core::verify_mapping(slot.config, mapping);
    });
    rec_.time(kLatency, probe || !with_latency, [&] {
      for (Index g = 0; g < slot.config.num_task_graphs(); ++g) {
        const bbs::core::MappedGraph& mg =
            mapping.graphs[static_cast<std::size_t>(g)];
        bbs::linalg::Vector budgets;
        std::vector<Index> capacities;
        for (const auto& t : mg.tasks) {
          budgets.push_back(static_cast<double>(t.budget));
        }
        for (const auto& b : mg.buffers) capacities.push_back(b.capacity);
        bbs::core::compute_latency_bounds(slot.config, g, budgets, capacities);
      }
    });
    if (!slot.kkt_probed && sol.is_optimal()) {
      slot.kkt_probed = true;
      if (const auto k = probe_kkt(slot.program.problem, sol, rec_)) {
        kkt_.push_back(*k);
      }
    }
  }

  /// The driver path of sweep / min_period / two_phase requests, on a
  /// pooled core::SolverSession set up the way api::Engine sets it up.
  void driver_path(const bbs::api::Request& request, const std::string& key,
                   bool probe) {
    const bbs::api::RequestOptions& opts = request.options;
    bbs::core::SessionOptions base;
    base.mapping.ipm = opts.ipm;
    base.mapping.rounding_eps = opts.rounding_eps;
    base.mapping.verify = false;
    Configuration session_config = request.configuration();
    bool caps_rewritable = true;
    std::optional<std::vector<bbs::linalg::Vector>> budgets;
    using bbs::api::MinPeriodRequest;
    using bbs::api::TwoPhaseRequest;
    if (const auto* r = std::get_if<bbs::api::SweepRequest>(&request.payload)) {
      auto& tg = session_config.mutable_task_graph(r->graph);
      for (Index b = 0; b < tg.num_buffers(); ++b) {
        tg.set_max_capacity(b, r->cap_lo);
      }
    } else if (const auto* r = std::get_if<MinPeriodRequest>(&request.payload);
               r != nullptr && r->flow == MinPeriodRequest::Flow::kBudgetFirst) {
      session_config.mutable_task_graph(r->graph).set_required_period(
          r->period_hi);
      budgets = rec_.time(kDriver, probe, [&] {
        return bbs::core::budget_first_budgets(session_config,
                                               opts.rounding_eps);
      });
      base.build.fixed_budgets = *budgets;
    } else if (const auto* r = std::get_if<TwoPhaseRequest>(&request.payload)) {
      if (r->mode == TwoPhaseRequest::Mode::kBudgetFirst) {
        budgets = rec_.time(kDriver, probe, [&] {
          return bbs::core::budget_first_budgets(session_config,
                                                 opts.rounding_eps);
        });
        base.build.fixed_budgets = *budgets;
      } else {
        caps_rewritable = false;
        base.build.fixed_deltas =
            bbs::core::buffer_first_deltas(session_config, r->cap_lo);
      }
    }

    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      if (sessions_.size() >= 64) sessions_.clear();
      auto session = rec_.time(kBuild, probe, [&] {
        return std::make_unique<bbs::core::SolverSession>(session_config,
                                                          base);
      });
      it = sessions_.emplace(key, std::move(session)).first;
    }
    bbs::core::SolverSession& session = *it->second;
    rec_.time(kRefresh, probe, [&] {
      for (Index g = 0; g < session_config.num_task_graphs(); ++g) {
        const auto& tg = session_config.task_graph(g);
        session.set_required_period(g, tg.required_period());
        if (caps_rewritable) {
          for (Index b = 0; b < tg.num_buffers(); ++b) {
            if (tg.buffer(b).max_capacity != -1) {
              session.set_buffer_cap(g, b, tg.buffer(b).max_capacity);
            }
          }
        }
        if (budgets) {
          session.set_fixed_budgets(g, (*budgets)[static_cast<std::size_t>(g)]);
        }
      }
    });

    std::vector<bbs::core::MappingResult> mappings;
    rec_.time(kDriver, probe, [&] {
      if (const auto* r =
              std::get_if<bbs::api::SweepRequest>(&request.payload)) {
        bbs::core::sweep_max_capacity(session, r->graph, r->cap_lo, r->cap_hi);
      } else if (const auto* r = std::get_if<MinPeriodRequest>(
                     &request.payload)) {
        const auto found =
            r->flow == MinPeriodRequest::Flow::kJoint
                ? bbs::core::minimal_feasible_period(
                      session, r->graph, r->period_hi, r->rel_tol, false)
                : bbs::core::minimal_feasible_period_budget_first(
                      session, r->graph, r->period_hi, r->rel_tol,
                      opts.rounding_eps, false);
        if (found) mappings.push_back(found->mapping);
      } else if (const auto* r =
                     std::get_if<TwoPhaseRequest>(&request.payload)) {
        if (r->mode == TwoPhaseRequest::Mode::kBudgetFirst) {
          mappings.push_back(session.solve());
        } else {
          mappings = bbs::core::sweep_buffer_first(
              session, request.configuration(), r->cap_lo,
              r->cap_hi == -1 ? r->cap_lo : r->cap_hi);
        }
      }
    });
    rec_.time(kVerify, probe, [&] {
      for (bbs::core::MappingResult& mapping : mappings) {
        bbs::core::verify_mapping(session.config(), mapping);
      }
    });
  }

  long ipm_iterations() const { return ipm_iterations_; }
  const std::vector<KktProbe>& kkt() const { return kkt_; }

 private:
  Recorder& rec_;
  std::unordered_map<std::string, std::unique_ptr<SolveSlot>> slots_;
  std::unordered_map<std::string, std::unique_ptr<bbs::core::SolverSession>>
      sessions_;
  long ipm_iterations_ = 0;
  std::vector<KktProbe> kkt_;
};

}  // namespace

void run_replay(const Workload& workload, References& references,
                double seconds, const std::string& spans_path,
                RunReport& report) {
  const auto origin = Clock::now();
  Recorder rec(origin);
  Decomposer decomposer(rec);
  // One engine pooling every structure of the workload, as the daemon's
  // workers do between them.
  bbs::api::EngineOptions engine_options;
  engine_options.max_pool_sessions = 64;
  bbs::api::Engine engine(engine_options);
  Tally tally;

  std::size_t replayed = 0;
  for (std::size_t k = 0;; ++k) {
    if (k >= workload.warmup.size() && seconds_since(origin) >= seconds) break;
    const std::uint32_t index =
        k < workload.warmup.size()
            ? workload.warmup[k]
            : workload.stream[(k - workload.warmup.size()) %
                              workload.stream.size()];
    const Answer& reference = references.get(index);  // outside any span
    rec.begin_request(static_cast<std::uint32_t>(k));
    const auto request_start = Clock::now();

    const std::string& line = workload.lines[index];
    const std::string text = line.substr(0, line.size() - 1);
    const bbs::api::Request request = rec.time(
        kParse, false, [&] { return bbs::io::request_from_json(text); });
    const std::string key = rec.time(kKey, false, [&] {
      return bbs::api::request_structure_key(request);
    });
    const bbs::api::Response response =
        rec.time(kEngineRun, false, [&] { return engine.run(request); });
    const std::string out = rec.time(kSerialise, false, [&] {
      return bbs::io::write_json_compact(
          bbs::io::response_to_json_value(response));
    });
    Answer answer;
    scan_answer(out, answer);
    tally.add(check_answer(answer, reference, tally));

    const bbs::model::Configuration& config = request.configuration();
    const bool solve_kind =
        std::holds_alternative<bbs::api::SolveRequest>(request.payload);
    const bool latency_kind =
        std::holds_alternative<bbs::api::LatencyRequest>(request.payload);
    decomposer.solve_path(config, request.options, latency_kind,
                          !(solve_kind || latency_kind));
    if (solve_kind || latency_kind) {
      // Driver probe: a one-point capacity sweep of graph 0.
      bbs::api::Request sweep;
      sweep.options = request.options;
      sweep.payload = bbs::api::SweepRequest{config, 0, 24, 24};
      decomposer.driver_path(sweep, bbs::api::request_structure_key(sweep),
                             true);
    } else {
      decomposer.driver_path(request, key, false);
    }
    rec.add(kRequest, false, request_start, Clock::now());
    ++replayed;
  }
  rec.write(spans_path);

  auto& m = report.metrics;
  m["io.parse_us"] = rec.mean_us(kParse);
  m["io.serialise_us"] = rec.mean_us(kSerialise);
  m["api.key_us"] = rec.mean_us(kKey);
  m["api.engine_run_us"] = rec.mean_us(kEngineRun);
  m["api.unaccounted_frac"] =
      1.0 - rec.covered_us() / rec.total_us(kEngineRun);
  m["core.build_us"] = rec.mean_us(kBuild);
  m["core.refresh_us"] = rec.mean_us(kRefresh);
  m["core.round_us"] = rec.mean_us(kRound);
  m["core.verify_us"] = rec.mean_us(kVerify);
  m["core.latency_us"] = rec.mean_us(kLatency);
  m["core.driver_us"] = rec.mean_us(kDriver);
  m["solver.ipm_us"] = rec.mean_us(kIpm);
  m["solver.ipm_us_per_iter"] =
      decomposer.ipm_iterations() > 0
          ? rec.total_us(kIpm) / static_cast<double>(decomposer.ipm_iterations())
          : 0.0;
  double factorise = 0.0, solve = 0.0, nnz = 0.0;
  for (const KktProbe& k : decomposer.kkt()) {
    factorise += k.factorise_us;
    solve += k.solve_us;
    nnz += k.factor_nnz;
  }
  const double probes = static_cast<double>(decomposer.kkt().size());
  m["solver.kkt_factorise_us"] = probes > 0 ? factorise / probes : 0.0;
  m["solver.kkt_solve_us"] = probes > 0 ? solve / probes : 0.0;
  m["linalg.factor_nnz"] = probes > 0 ? nnz / probes : 0.0;

  report.details["replay_requests"] = static_cast<double>(replayed);
  report.details["replay_kkt_probes"] = probes;
  report.details["replay_failed"] = static_cast<double>(tally.failed);
  report.details["replay_max_rel_dev"] = tally.max_rel_dev;
  report.details["replay_min_period_divergent"] =
      static_cast<double>(tally.divergent);
  report.attempted += tally.checked;
  report.failed += tally.failed;
  report.correct = report.correct && tally.failed == 0;
}

}  // namespace servebench
