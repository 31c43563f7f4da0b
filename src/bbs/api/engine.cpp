#include "bbs/api/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bbs/common/assert.hpp"
#include "bbs/core/latency.hpp"
#include "bbs/core/tradeoff.hpp"
#include "bbs/core/two_phase.hpp"
#include "bbs/io/config_io.hpp"
#include "bbs/io/json.hpp"
#include "bbs/telemetry/structure_cache.hpp"

namespace bbs::api {

using linalg::Vector;

namespace {

// ---------------------------------------------------------------------------
// Pool keys
// ---------------------------------------------------------------------------
//
// Two requests may share a session exactly when the programs they would
// build are identical up to the parameters a SolverSession can rewrite in
// place: required periods always; finite capacity caps when the deltas are
// program variables (joint and budget-first modes — fixed-delta programs
// have no cap rows); committed phase-1 vectors in the two-phase modes. The
// key therefore serialises everything else verbatim — platform, topology,
// WCETs, weights, which buffers are capped — plus the build mode and the
// solver options baked into a session, and wildcards only what acquire()
// re-applies per request.

void append_num(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g;", value);
  out += buf;
}

void append_index(std::string& out, linalg::Index value) {
  out += std::to_string(value);
  out += ';';
}

/// Names are user-controlled (untrusted JSONL requests), so they are
/// length-prefixed: a name containing the key's delimiters must not make
/// two structurally different configurations collide onto one session.
void append_name(std::string& out, const std::string& name) {
  out += std::to_string(name.size());
  out += ':';
  out += name;
  out += ';';
}

/// Build mode of a pooled session. The letter goes into the pool key.
enum class Mode : char {
  kJoint = 'J',
  kBudgetFirst = 'B',
  kBufferFirst = 'F',
};

/// `sweep_graph != -1` keys the configuration as the sweep driver mutates
/// it before building: every buffer of that graph capped (at the swept
/// bound, which is wildcarded like any rewritable cap). Lets
/// request_structure_key match the engine's key without copying the
/// configuration.
std::string pool_key(const model::Configuration& config, Mode mode,
                     const RequestOptions& options, Index sweep_graph = -1) {
  // In fixed-delta programs the caps are not rewritable (no cap rows), so
  // their values stay part of the structure instead of being wildcarded.
  const bool caps_rewritable = mode != Mode::kBufferFirst;

  std::string key;
  key += static_cast<char>(mode);
  key += ';';
  append_index(key, config.granularity());
  key += "P:";
  for (Index p = 0; p < config.num_processors(); ++p) {
    const model::Processor& proc = config.processor(p);
    append_name(key, proc.name);
    append_num(key, proc.replenishment_interval);
    append_num(key, proc.scheduling_overhead);
  }
  key += "M:";
  for (Index m = 0; m < config.num_memories(); ++m) {
    const model::Memory& mem = config.memory(m);
    append_name(key, mem.name);
    append_num(key, mem.capacity);
  }
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const model::TaskGraph& tg = config.task_graph(gi);
    key += "G:";
    append_name(key, tg.name());
    // required_period: wildcarded (re-applied per request).
    for (Index t = 0; t < tg.num_tasks(); ++t) {
      const model::Task& task = tg.task(t);
      key += "t:";
      append_name(key, task.name);
      append_index(key, task.processor);
      append_num(key, task.wcet);
      append_num(key, task.budget_weight);
    }
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      const model::Buffer& buf = tg.buffer(b);
      key += "b:";
      append_name(key, buf.name);
      append_index(key, buf.producer);
      append_index(key, buf.consumer);
      append_index(key, buf.memory);
      append_index(key, buf.container_size);
      append_index(key, buf.initial_fill);
      append_num(key, buf.size_weight);
      if (gi == sweep_graph) {
        key += "c;";  // swept: capped at the (wildcarded) swept bound
      } else if (buf.max_capacity == -1) {
        key += "u;";  // uncapped: no cap row exists
      } else if (caps_rewritable) {
        key += "c;";  // capped: cap row exists, value re-applied per request
      } else {
        key += "c=";
        append_index(key, buf.max_capacity);
      }
    }
  }

  // Solver options are baked into a session (IpmSolver construction and the
  // rounding tail), so they are part of the key, not wildcards.
  const solver::SolverOptions& ipm = options.ipm;
  key += "O:";
  append_index(key, ipm.max_iterations);
  append_num(key, ipm.feas_tol);
  append_num(key, ipm.gap_tol);
  append_index(key, ipm.stall_iterations);
  append_num(key, ipm.step_fraction);
  append_index(key, ipm.refine_steps);
  append_num(key, ipm.static_regularisation);
  append_index(key, static_cast<linalg::Index>(ipm.ordering));
  append_index(key, ipm.equilibrate_rounds);
  key += ipm.warm_start ? '1' : '0';
  append_num(key, ipm.warm_start_margin);
  append_index(key, ipm.recovery_attempts);
  append_num(key, options.rounding_eps);
  return key;
}

/// Re-applies the wildcarded parameters of `config` to a pooled session:
/// every graph's required period, and — when the session's program carries
/// cap rows — every finite buffer cap. Brings the session's configuration
/// into exact agreement with `config` (everything else matched via the
/// pool key). Fixed phase-1 vectors are re-committed by the per-kind
/// drivers, which derive them from the request anyway.
void reapply_parameters(core::SolverSession& session,
                        const model::Configuration& config,
                        bool caps_rewritable) {
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const model::TaskGraph& tg = config.task_graph(gi);
    session.set_required_period(gi, tg.required_period());
    if (!caps_rewritable) continue;
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      const Index cap = tg.buffer(b).max_capacity;
      if (cap != -1) session.set_buffer_cap(gi, b, cap);
    }
  }
}

struct WorkspaceSnapshot {
  int solves = 0;
  long iterations = 0;
  int warm_started = 0;
  int recovered = 0;
};

WorkspaceSnapshot snapshot(const core::SolverSession& session) {
  const solver::IpmWorkspace& ws = session.workspace();
  return {ws.solves(), ws.total_iterations(), ws.warm_started_solves(),
          ws.recovered_solves()};
}

// ---------------------------------------------------------------------------
// Persistent-cache session payloads
// ---------------------------------------------------------------------------
//
// The structure cache stores, next to the symbolic analysis, everything
// needed to reconstruct an equivalent pooled session at startup: the
// session's configuration (post any driver mutations — sweep caps, probe
// ceilings) and the session options that shape the built program. The
// payload is opaque to the telemetry layer; this is its one producer and
// consumer. Doubles round-trip exactly (%.17g both ways).

io::JsonValue vectors_to_json(const std::vector<Vector>& vectors) {
  io::JsonArray outer;
  outer.reserve(vectors.size());
  for (const Vector& vec : vectors) {
    io::JsonArray inner;
    inner.reserve(vec.size());
    for (const double v : vec) inner.emplace_back(v);
    outer.emplace_back(std::move(inner));
  }
  return io::JsonValue(std::move(outer));
}

std::vector<Vector> vectors_from_json(const io::JsonValue& value) {
  std::vector<Vector> vectors;
  for (const io::JsonValue& inner : value.as_array()) {
    Vector vec;
    vec.reserve(inner.as_array().size());
    for (const io::JsonValue& v : inner.as_array()) {
      vec.push_back(v.as_number());
    }
    vectors.push_back(std::move(vec));
  }
  return vectors;
}

io::JsonValue session_payload_to_json(const core::SolverSession& session) {
  const core::SessionOptions& options = session.options();
  const solver::SolverOptions& ipm = options.mapping.ipm;

  io::JsonObject ipm_json;
  ipm_json["max_iterations"] = static_cast<long long>(ipm.max_iterations);
  ipm_json["feas_tol"] = ipm.feas_tol;
  ipm_json["gap_tol"] = ipm.gap_tol;
  ipm_json["stall_iterations"] =
      static_cast<long long>(ipm.stall_iterations);
  ipm_json["step_fraction"] = ipm.step_fraction;
  ipm_json["refine_steps"] = static_cast<long long>(ipm.refine_steps);
  ipm_json["static_regularisation"] = ipm.static_regularisation;
  ipm_json["ordering"] = static_cast<long long>(ipm.ordering);
  ipm_json["equilibrate_rounds"] =
      static_cast<long long>(ipm.equilibrate_rounds);
  ipm_json["warm_start"] = ipm.warm_start;
  ipm_json["warm_start_margin"] = ipm.warm_start_margin;
  ipm_json["recovery_attempts"] =
      static_cast<long long>(ipm.recovery_attempts);

  io::JsonObject payload;
  payload["configuration"] =
      io::configuration_to_json_value(session.config());
  payload["ipm"] = io::JsonValue(std::move(ipm_json));
  payload["rounding_eps"] = options.mapping.rounding_eps;
  if (options.build.fixed_budgets) {
    payload["fixed_budgets"] = vectors_to_json(*options.build.fixed_budgets);
  }
  if (options.build.fixed_deltas) {
    payload["fixed_deltas"] = vectors_to_json(*options.build.fixed_deltas);
  }
  return io::JsonValue(std::move(payload));
}

/// Inverse of session_payload_to_json. Throws on malformed payloads (the
/// caller converts that into a counted prewarm error).
void session_payload_from_json(const io::JsonValue& payload,
                               model::Configuration* config,
                               core::SessionOptions* options) {
  const io::JsonObject& object = payload.as_object();
  *config = io::configuration_from_json_value(object.at("configuration"));

  // Mirrors the base options run_checked() bakes into every session:
  // verification off.
  core::SessionOptions base;
  base.mapping.verify = false;
  solver::SolverOptions& ipm = base.mapping.ipm;
  const io::JsonObject& ipm_json = object.at("ipm").as_object();
  ipm.max_iterations =
      static_cast<int>(ipm_json.at("max_iterations").as_number());
  ipm.feas_tol = ipm_json.at("feas_tol").as_number();
  ipm.gap_tol = ipm_json.at("gap_tol").as_number();
  ipm.stall_iterations =
      static_cast<int>(ipm_json.at("stall_iterations").as_number());
  ipm.step_fraction = ipm_json.at("step_fraction").as_number();
  ipm.refine_steps = static_cast<int>(ipm_json.at("refine_steps").as_number());
  ipm.static_regularisation =
      ipm_json.at("static_regularisation").as_number();
  ipm.ordering = static_cast<linalg::OrderingMethod>(
      static_cast<int>(ipm_json.at("ordering").as_number()));
  ipm.equilibrate_rounds =
      static_cast<int>(ipm_json.at("equilibrate_rounds").as_number());
  ipm.warm_start = ipm_json.at("warm_start").as_bool();
  ipm.warm_start_margin = ipm_json.at("warm_start_margin").as_number();
  ipm.recovery_attempts =
      static_cast<int>(ipm_json.at("recovery_attempts").as_number());

  base.mapping.rounding_eps = object.at("rounding_eps").as_number();
  if (object.contains("fixed_budgets")) {
    base.build.fixed_budgets = vectors_from_json(object.at("fixed_budgets"));
  }
  if (object.contains("fixed_deltas")) {
    base.build.fixed_deltas = vectors_from_json(object.at("fixed_deltas"));
  }
  *options = std::move(base);
}

}  // namespace

std::string request_structure_key(const Request& request) {
  const RequestOptions& opts = request.options;
  if (const auto* r = std::get_if<SweepRequest>(&request.payload)) {
    return pool_key(r->configuration, Mode::kJoint, opts, r->graph);
  }
  if (const auto* r = std::get_if<MinPeriodRequest>(&request.payload)) {
    // Budget-first sessions are keyed at the probe ceiling's configuration,
    // but periods are wildcards, so the original configuration keys
    // identically.
    return pool_key(r->configuration,
                    r->flow == MinPeriodRequest::Flow::kBudgetFirst
                        ? Mode::kBudgetFirst
                        : Mode::kJoint,
                    opts);
  }
  if (const auto* r = std::get_if<TwoPhaseRequest>(&request.payload)) {
    return pool_key(r->configuration,
                    r->mode == TwoPhaseRequest::Mode::kBudgetFirst
                        ? Mode::kBudgetFirst
                        : Mode::kBufferFirst,
                    opts);
  }
  return pool_key(request.configuration(), Mode::kJoint, opts);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct Engine::PooledSession {
  std::string key;
  core::SolverSession session;
  std::uint64_t last_used = 0;
  bool hit = false;  ///< true when the last acquire() found it in the pool

  PooledSession(std::string k, const model::Configuration& config,
                core::SessionOptions options)
      : key(std::move(k)), session(config, std::move(options)) {}
};

Engine::Engine(EngineOptions options) : options_(options) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

void Engine::clear_pool() {
  pool_.clear();
  last_session_ = nullptr;
}

Engine::PooledSession& Engine::acquire(const std::string& key,
                                       const model::Configuration& config,
                                       core::SessionOptions session_options) {
  for (auto& pooled : pool_) {
    if (pooled->key == key) {
      pooled->last_used = ++clock_;
      pooled->hit = true;
      ++stats_.pool_hits;
      last_session_ = pooled.get();
      return *pooled;
    }
  }
  ++stats_.pool_misses;
  // Miss: make room first so the pool never exceeds its bound. With
  // pooling disabled (max 0) the fresh session still lives in the pool for
  // the duration of this request; run() clears it afterwards.
  if (options_.max_pool_sessions > 0) {
    while (pool_.size() >= options_.max_pool_sessions) trim_pool();
  }
  auto pooled = std::make_unique<PooledSession>(key, config,
                                               std::move(session_options));
  pooled->last_used = ++clock_;
  pooled->hit = false;
  // A cache entry for this structure (written by a previous process or a
  // sibling engine) seeds the fresh session's symbolic analysis: the first
  // solve skips the fill-reducing ordering. Validated downstream; a stale
  // entry degrades to a full derivation, never an error.
  if (options_.structure_cache != nullptr) {
    if (std::optional<telemetry::CacheEntry> entry =
            options_.structure_cache->lookup(key)) {
      pooled->session.seed_symbolic(std::move(entry->symbolic));
    }
  }
  pool_.push_back(std::move(pooled));
  last_session_ = pool_.back().get();
  return *pool_.back();
}

Engine::PooledSession& Engine::acquire_controlled(
    const std::string& key, const model::Configuration& config,
    core::SessionOptions session_options) {
  PooledSession& pooled =
      acquire(key, config, std::move(session_options));
  // Installed unconditionally — on hits it replaces whatever control the
  // previous request left behind, on misses it arms the fresh session.
  pooled.session.set_solve_control(control_);
  return pooled;
}

void Engine::trim_pool() {
  if (pool_.empty()) return;
  const auto lru = std::min_element(
      pool_.begin(), pool_.end(), [](const auto& a, const auto& b) {
        return a->last_used < b->last_used;
      });
  if (lru->get() == last_session_) last_session_ = nullptr;
  pool_.erase(lru);
  ++stats_.evictions;
}

Response Engine::run(const Request& request) {
  solver::SolveControl control;
  if (request.options.deadline_ms > 0.0) {
    control.deadline =
        solver::CancelToken::Clock::now() +
        std::chrono::duration_cast<solver::CancelToken::Clock::duration>(
            std::chrono::duration<double, std::milli>(
                request.options.deadline_ms));
  }
  return run(request, std::move(control));
}

Response Engine::run(const Request& request, solver::SolveControl control) {
  const auto start = std::chrono::steady_clock::now();
  last_session_ = nullptr;
  // Installed on every session this request acquires (acquire_controlled).
  control_ = std::move(control);

  Response response;
  const auto fail = [&](ErrorCode code, const char* what) {
    response = Response{};
    response.status = ResponseStatus::kError;
    response.error = what;
    response.error_code = code;
  };
  try {
    response = run_checked(request);
  } catch (const DeadlineExceeded& e) {
    fail(ErrorCode::kDeadlineExceeded, e.what());
  } catch (const Cancelled& e) {
    fail(ErrorCode::kCancelled, e.what());
  } catch (const ModelError& e) {
    fail(ErrorCode::kParse, e.what());
  } catch (const NumericalError& e) {
    fail(ErrorCode::kNumericalFailure, e.what());
  } catch (const std::exception& e) {
    fail(ErrorCode::kInternal, e.what());
  }
  response.id = request.id;
  response.kind = request.kind();
  response.diagnostics.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Engine wall time is the solve stage; the dispatcher adds the queue
  // stage on top so daemon responses split the two on one clock.
  response.diagnostics.solve_ms = response.diagnostics.wall_ms;
  maybe_save_to_cache(response);
  if (options_.max_pool_sessions == 0) clear_pool();

  ++stats_.requests;
  switch (response.status) {
    case ResponseStatus::kOk:
      ++stats_.ok;
      break;
    case ResponseStatus::kInfeasible:
      ++stats_.infeasible;
      break;
    case ResponseStatus::kError:
      ++stats_.errors;
      break;
  }
  const Diagnostics& diag = response.diagnostics;
  stats_.ipm_iterations += diag.ipm_iterations;
  stats_.solves += static_cast<std::uint64_t>(diag.solves);
  stats_.warm_started_solves +=
      static_cast<std::uint64_t>(diag.warm_started_solves);
  stats_.recovered_solves += static_cast<std::uint64_t>(diag.recovered_solves);
  // Each fresh session runs exactly one symbolic analysis (its diagnostics
  // report the session-lifetime count, which is 1 on the request that
  // created it); pooled repeats add none.
  if (!diag.session_reused) {
    stats_.symbolic_factorisations +=
        static_cast<std::uint64_t>(diag.symbolic_factorisations);
  }
  return response;
}

void Engine::maybe_save_to_cache(const Response& response) {
  if (options_.structure_cache == nullptr || last_session_ == nullptr) return;
  // Only the request that derived a structure (pool miss, request served to
  // completion) writes it; errors may leave the session without a bound
  // workspace or with a half-configured program.
  if (last_session_->hit || response.status == ResponseStatus::kError) return;
  if (options_.structure_cache->contains(last_session_->key)) return;
  std::optional<solver::SymbolicAnalysis> symbolic =
      last_session_->session.export_symbolic();
  if (!symbolic) return;
  try {
    telemetry::CacheEntry entry;
    entry.key = last_session_->key;
    entry.symbolic = std::move(*symbolic);
    entry.session = session_payload_to_json(last_session_->session);
    options_.structure_cache->store(std::move(entry));
  } catch (const std::exception&) {
    // Cache writes are best-effort; a serialisation failure must never
    // affect the response.
  }
}

bool Engine::prewarm_entry(const telemetry::CacheEntry& entry) {
  try {
    model::Configuration config;
    core::SessionOptions session_options;
    session_payload_from_json(entry.session, &config, &session_options);
    config.validate();
    // Make room exactly like a miss would, then install the session under
    // the entry's stored key with hit=false: the first real request finds
    // it (pool hit, session_reused=true) and its first solve loads the
    // seeded symbolic analysis instead of deriving one.
    if (options_.max_pool_sessions > 0) {
      while (pool_.size() >= options_.max_pool_sessions) trim_pool();
    }
    auto pooled = std::make_unique<PooledSession>(
        entry.key, config, std::move(session_options));
    pooled->last_used = ++clock_;
    pooled->hit = false;
    pooled->session.seed_symbolic(entry.symbolic);
    pool_.push_back(std::move(pooled));
    ++stats_.prewarmed_sessions;
    return true;
  } catch (const std::exception&) {
    if (options_.structure_cache != nullptr) {
      options_.structure_cache->note_prewarm_error();
    }
    return false;
  }
}

std::vector<Response> Engine::run_batch(const std::vector<Request>& requests) {
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (const Request& request : requests) {
    responses.push_back(run(request));
  }
  return responses;
}

Response Engine::run_checked(const Request& request) {
  const RequestOptions& opts = request.options;
  request.configuration().validate();

  // Sessions never verify per solve: bisection probes and sweep points are
  // feasibility queries, and the engine verifies exactly the mappings a
  // response hands back (when the request asks for verification at all).
  core::SessionOptions base;
  base.mapping.ipm = opts.ipm;
  base.mapping.rounding_eps = opts.rounding_eps;
  base.mapping.verify = false;

  Response response;
  Diagnostics& diag = response.diagnostics;

  const auto finish_diag = [&diag](const PooledSession& pooled,
                                   const WorkspaceSnapshot& before) {
    const solver::IpmWorkspace& ws = pooled.session.workspace();
    diag.solves = ws.solves() - before.solves;
    diag.ipm_iterations = ws.total_iterations() - before.iterations;
    diag.warm_started_solves = ws.warm_started_solves() - before.warm_started;
    diag.recovered_solves = ws.recovered_solves() - before.recovered;
    diag.symbolic_factorisations =
        ws.kkt() != nullptr ? ws.kkt()->stats().symbolic_factorisations : 0;
    diag.session_reused = pooled.hit;
  };

  if (const auto* r = std::get_if<SolveRequest>(&request.payload)) {
    PooledSession& pooled =
        acquire_controlled(pool_key(r->configuration, Mode::kJoint, opts),
                r->configuration, base);
    if (pooled.hit) {
      reapply_parameters(pooled.session, r->configuration,
                         /*caps_rewritable=*/true);
    }
    const WorkspaceSnapshot before = snapshot(pooled.session);
    core::MappingResult mapping = pooled.session.solve();
    core::throw_if_interrupted(mapping);
    if (mapping.status == solver::SolveStatus::kNumericalFailure) {
      // A lone solve has no bracket to fall back on: a numerical breakdown
      // is neither a solution nor an infeasibility certificate, so surface
      // it as a structured hard error instead of claiming "infeasible".
      throw NumericalError("interior-point solve failed to converge");
    }
    if (opts.verify) core::verify_mapping(pooled.session.config(), mapping);
    response.status = mapping.feasible() ? ResponseStatus::kOk
                                         : ResponseStatus::kInfeasible;
    response.payload = SolvePayload{std::move(mapping)};
    finish_diag(pooled, before);

  } else if (const auto* r = std::get_if<SweepRequest>(&request.payload)) {
    BBS_REQUIRE(r->graph >= 0 &&
                    r->graph < r->configuration.num_task_graphs(),
                "SweepRequest: graph index out of range");
    BBS_REQUIRE(r->cap_lo >= 1 && r->cap_hi >= r->cap_lo,
                "SweepRequest: need 1 <= cap_lo <= cap_hi");
    // The swept graph's buffers are capped at cap_lo so the cap rows exist
    // in the built program, exactly like the free-function driver.
    model::Configuration session_config = r->configuration;
    model::TaskGraph& tg = session_config.mutable_task_graph(r->graph);
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      tg.set_max_capacity(b, r->cap_lo);
    }
    PooledSession& pooled =
        acquire_controlled(pool_key(session_config, Mode::kJoint, opts), session_config,
                base);
    if (pooled.hit) {
      reapply_parameters(pooled.session, session_config,
                         /*caps_rewritable=*/true);
    }
    const WorkspaceSnapshot before = snapshot(pooled.session);
    core::TradeoffSweep sweep =
        core::sweep_max_capacity(pooled.session, r->graph, r->cap_lo,
                                 r->cap_hi);
    const bool any_feasible =
        std::any_of(sweep.points.begin(), sweep.points.end(),
                    [](const core::TradeoffPoint& p) { return p.feasible; });
    response.status =
        any_feasible ? ResponseStatus::kOk : ResponseStatus::kInfeasible;
    response.payload = SweepPayload{std::move(sweep)};
    finish_diag(pooled, before);

  } else if (const auto* r = std::get_if<MinPeriodRequest>(&request.payload)) {
    BBS_REQUIRE(r->graph >= 0 &&
                    r->graph < r->configuration.num_task_graphs(),
                "MinPeriodRequest: graph index out of range");
    std::optional<core::MinimalPeriodResult> found;
    if (r->flow == MinPeriodRequest::Flow::kJoint) {
      PooledSession& pooled =
          acquire_controlled(pool_key(r->configuration, Mode::kJoint, opts),
                  r->configuration, base);
      if (pooled.hit) {
        reapply_parameters(pooled.session, r->configuration,
                           /*caps_rewritable=*/true);
      }
      const WorkspaceSnapshot before = snapshot(pooled.session);
      found = core::minimal_feasible_period(pooled.session, r->graph,
                                            r->period_hi, r->rel_tol,
                                            opts.verify);
      finish_diag(pooled, before);
    } else {
      // Budget-first: the session is built (or re-committed) with the
      // phase-1 budgets of the probe ceiling, like the free-function
      // driver.
      model::Configuration at_hi = r->configuration;
      at_hi.mutable_task_graph(r->graph).set_required_period(r->period_hi);
      const std::vector<Vector> budgets =
          core::budget_first_budgets(at_hi, opts.rounding_eps);
      core::SessionOptions bf = base;
      bf.build.fixed_budgets = budgets;
      PooledSession& pooled = acquire(
          pool_key(at_hi, Mode::kBudgetFirst, opts), at_hi, std::move(bf));
      if (pooled.hit) {
        reapply_parameters(pooled.session, at_hi, /*caps_rewritable=*/true);
        for (Index gi = 0; gi < at_hi.num_task_graphs(); ++gi) {
          pooled.session.set_fixed_budgets(
              gi, budgets[static_cast<std::size_t>(gi)]);
        }
      }
      const WorkspaceSnapshot before = snapshot(pooled.session);
      found = core::minimal_feasible_period_budget_first(
          pooled.session, r->graph, r->period_hi, r->rel_tol,
          opts.rounding_eps, opts.verify);
      finish_diag(pooled, before);
    }
    MinPeriodPayload payload;
    payload.found = found.has_value();
    if (found) {
      payload.period = found->period;
      payload.mapping = std::move(found->mapping);
    }
    response.status = payload.found ? ResponseStatus::kOk
                                    : ResponseStatus::kInfeasible;
    response.payload = std::move(payload);

  } else if (const auto* r = std::get_if<TwoPhaseRequest>(&request.payload)) {
    TwoPhasePayload payload;
    if (r->mode == TwoPhaseRequest::Mode::kBudgetFirst) {
      const std::vector<Vector> budgets =
          core::budget_first_budgets(r->configuration, opts.rounding_eps);
      core::SessionOptions bf = base;
      bf.build.fixed_budgets = budgets;
      PooledSession& pooled =
          acquire_controlled(pool_key(r->configuration, Mode::kBudgetFirst, opts),
                  r->configuration, std::move(bf));
      if (pooled.hit) {
        reapply_parameters(pooled.session, r->configuration,
                           /*caps_rewritable=*/true);
        for (Index gi = 0; gi < r->configuration.num_task_graphs(); ++gi) {
          pooled.session.set_fixed_budgets(
              gi, budgets[static_cast<std::size_t>(gi)]);
        }
      }
      const WorkspaceSnapshot before = snapshot(pooled.session);
      payload.mappings.push_back(pooled.session.solve());
      core::throw_if_interrupted(payload.mappings.back());
      if (opts.verify) {
        core::verify_mapping(pooled.session.config(), payload.mappings.back());
      }
      finish_diag(pooled, before);
    } else {
      const Index cap_hi = r->cap_hi == -1 ? r->cap_lo : r->cap_hi;
      BBS_REQUIRE(r->cap_lo >= 1 && cap_hi >= r->cap_lo,
                  "TwoPhaseRequest: need 1 <= cap_lo <= cap_hi");
      core::SessionOptions bf = base;
      bf.build.fixed_deltas =
          core::buffer_first_deltas(r->configuration, r->cap_lo);
      PooledSession& pooled =
          acquire_controlled(pool_key(r->configuration, Mode::kBufferFirst, opts),
                  r->configuration, std::move(bf));
      if (pooled.hit) {
        // Fixed-delta programs have no cap rows; the caps are part of the
        // pool key instead, so only the periods need re-applying. The sweep
        // driver re-commits the token counts per capacity.
        reapply_parameters(pooled.session, r->configuration,
                           /*caps_rewritable=*/false);
      }
      const WorkspaceSnapshot before = snapshot(pooled.session);
      payload.mappings = core::sweep_buffer_first(pooled.session,
                                                  r->configuration, r->cap_lo,
                                                  cap_hi);
      if (opts.verify) {
        for (core::MappingResult& mapping : payload.mappings) {
          core::verify_mapping(pooled.session.config(), mapping);
        }
      }
      finish_diag(pooled, before);
    }
    const bool any_feasible =
        std::any_of(payload.mappings.begin(), payload.mappings.end(),
                    [](const core::MappingResult& m) { return m.feasible(); });
    response.status =
        any_feasible ? ResponseStatus::kOk : ResponseStatus::kInfeasible;
    response.payload = std::move(payload);

  } else if (const auto* r = std::get_if<LatencyRequest>(&request.payload)) {
    BBS_REQUIRE(r->graph == -1 ||
                    (r->graph >= 0 &&
                     r->graph < r->configuration.num_task_graphs()),
                "LatencyRequest: graph index out of range");
    PooledSession& pooled =
        acquire_controlled(pool_key(r->configuration, Mode::kJoint, opts),
                r->configuration, base);
    if (pooled.hit) {
      reapply_parameters(pooled.session, r->configuration,
                         /*caps_rewritable=*/true);
    }
    const WorkspaceSnapshot before = snapshot(pooled.session);
    LatencyPayload payload;
    payload.mapping = pooled.session.solve();
    core::throw_if_interrupted(payload.mapping);
    if (opts.verify) {
      core::verify_mapping(pooled.session.config(), payload.mapping);
    }
    if (payload.mapping.feasible()) {
      const model::Configuration& config = pooled.session.config();
      const Index first = r->graph == -1 ? 0 : r->graph;
      const Index last =
          r->graph == -1 ? config.num_task_graphs() - 1 : r->graph;
      for (Index gi = first; gi <= last; ++gi) {
        const core::MappedGraph& mg =
            payload.mapping.graphs[static_cast<std::size_t>(gi)];
        Vector budgets;
        std::vector<Index> capacities;
        for (const core::TaskAllocation& t : mg.tasks) {
          budgets.push_back(static_cast<double>(t.budget));
        }
        for (const core::BufferAllocation& b : mg.buffers) {
          capacities.push_back(b.capacity);
        }
        const std::optional<core::GraphLatency> latency =
            core::compute_latency_bounds(config, gi, budgets, capacities);
        LatencyPayload::GraphBound bound;
        bound.graph = gi;
        bound.has_pas = latency.has_value();
        if (latency) bound.latency = *latency;
        payload.graphs.push_back(std::move(bound));
      }
    }
    response.status = payload.mapping.feasible() ? ResponseStatus::kOk
                                                 : ResponseStatus::kInfeasible;
    response.payload = std::move(payload);
    finish_diag(pooled, before);
  }

  return response;
}

}  // namespace bbs::api
