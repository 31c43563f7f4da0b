// Batched, session-pooled execution of service requests.
//
// The Engine is the one entry point behind the service API: it routes every
// `Request` kind to the core drivers and owns a pool of warm
// `core::SolverSession`s keyed by *problem structure* — the part of a
// configuration that determines the built program's sparsity pattern, cone
// and variable layout (platform, graph topology, WCETs, weights, which
// buffers are capped), together with the build mode (joint / fixed budgets
// / fixed deltas) and the solver options baked into a session.
//
// Requests whose configurations share a structure are served by one pooled
// session: the program build, the symbolic KKT factorisation and the warm
// starts of PR 2/3 are amortised across the whole batch
// (diagnostics.symbolic_factorisations == 1 for every such request), while
// the parameters that may legitimately differ between them — required
// periods, finite capacity caps, committed phase-1 vectors — are re-applied
// in place before each request runs. Structures that differ simply miss the
// pool and get a fresh session: the fallback is a cold solve, never an
// error.
//
// The Engine is sequential and not thread-safe: one engine serves one
// request at a time (matching the underlying sessions). Run several engines
// for parallelism.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bbs/api/request.hpp"
#include "bbs/api/response.hpp"
#include "bbs/core/solver_session.hpp"

namespace bbs::telemetry {
class StructureCache;
struct CacheEntry;
}  // namespace bbs::telemetry

namespace bbs::api {

struct EngineOptions {
  /// Upper bound on pooled sessions kept warm; the least recently used
  /// session is evicted beyond it. 0 disables pooling (every request is a
  /// fresh, cold solve — the explicit fallback behaviour, useful for
  /// apples-to-apples benchmarking).
  std::size_t max_pool_sessions = 16;
  /// Optional persistent structure cache (not owned; must outlive the
  /// engine; safe to share between engines). When set, a pool miss seeds
  /// the fresh session's symbolic analysis from a matching cache entry, and
  /// every structure solved for the first time is written behind to the
  /// cache. nullptr disables persistence entirely.
  telemetry::StructureCache* structure_cache = nullptr;
};

/// Cumulative counters of one engine since construction (clear_pool() does
/// not reset them). The service layer snapshots these per worker.
struct EngineStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t errors = 0;
  /// Requests served by a session created for an earlier request of the
  /// same structure (program build + symbolic analysis fully amortised).
  std::uint64_t pool_hits = 0;
  /// Requests that created a fresh session (cold solve).
  std::uint64_t pool_misses = 0;
  /// Warm sessions dropped by the LRU bound.
  std::uint64_t evictions = 0;
  /// One-time symbolic KKT factorisations performed across all sessions the
  /// engine created: 1 per distinct problem structure while it stays
  /// pooled — the amortisation invariant, observable end to end.
  std::uint64_t symbolic_factorisations = 0;
  /// Interior-point iterations and solves summed over every request.
  long long ipm_iterations = 0;
  std::uint64_t solves = 0;
  std::uint64_t warm_started_solves = 0;
  /// Solves whose initial IPM attempt failed numerically but whose recovery
  /// ladder produced a usable answer — the production recovery rate.
  std::uint64_t recovered_solves = 0;
  /// Sessions reconstructed at startup from the persistent structure cache
  /// (prewarm_entry). Their first real request is a pool hit and their
  /// symbolic analysis is loaded, not derived — so they contribute nothing
  /// to symbolic_factorisations.
  std::uint64_t prewarmed_sessions = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;

  /// Executes one request. Model/usage/numerical errors never escape: they
  /// come back as a Response with status kError and the cause in `error` /
  /// `error_code`. A request with options.deadline_ms > 0 gets an absolute
  /// deadline of now + deadline_ms.
  Response run(const Request& request);

  /// Executes one request under a caller-supplied execution control: an
  /// absolute deadline (lets a service account for time already spent
  /// queueing; options.deadline_ms is not consulted), an optional shared
  /// cancellation token (e.g. flipped when the client disconnects), and
  /// the failpoint and trace sink of this execution. Expiry terminates
  /// within one IPM iteration and comes back as a structured
  /// `deadline_exceeded` (resp. `cancelled`) error response; the pooled
  /// session that served the request stays warm and reusable.
  Response run(const Request& request, solver::SolveControl control);

  /// Executes the requests in order through the session pool. Equivalent to
  /// calling run() per element; one vector entry per request, same order.
  std::vector<Response> run_batch(const std::vector<Request>& requests);

  /// Number of sessions currently kept warm.
  std::size_t pooled_sessions() const { return pool_.size(); }
  /// Drops every pooled session (subsequent requests start cold).
  void clear_pool();

  /// Cumulative execution counters (not reset by clear_pool()).
  const EngineStats& stats() const { return stats_; }

  const EngineOptions& options() const { return options_; }

  /// Reconstructs a pooled session from a persistent-cache entry and seeds
  /// its symbolic analysis, so the first request of that structure is a
  /// pool hit with zero symbolic derivations. Intended for startup (before
  /// the engine serves traffic). Returns false — after counting the failure
  /// on the cache — when the entry's session payload does not reconstruct;
  /// never throws.
  bool prewarm_entry(const telemetry::CacheEntry& entry);

 private:
  struct PooledSession;

  PooledSession& acquire(const std::string& key,
                         const model::Configuration& session_config,
                         core::SessionOptions session_options);
  /// acquire() plus installation of the current request's SolveControl on
  /// the session (deadline / cancel token / injected fault / trace sink).
  PooledSession& acquire_controlled(const std::string& key,
                                    const model::Configuration& session_config,
                                    core::SessionOptions session_options);
  void trim_pool();

  Response run_checked(const Request& request);

  /// Writes the session that served the last request behind to the
  /// structure cache (first derivation of its structure only).
  void maybe_save_to_cache(const Response& response);

  EngineOptions options_;
  std::vector<std::unique_ptr<PooledSession>> pool_;
  std::uint64_t clock_ = 0;  ///< LRU stamp source
  /// The pooled session the current/last request ran on (owned by pool_;
  /// cleared when the pool is). Used for the post-request cache save.
  PooledSession* last_session_ = nullptr;
  EngineStats stats_;
  /// Execution control of the request currently executing; installed on
  /// every session acquire_controlled() so pooled sessions never carry one
  /// request's deadline or token into the next.
  solver::SolveControl control_;
};

/// The pool key the engine would file `request` under: a serialisation of
/// the request's problem structure (build mode, platform, topology, weights,
/// capped-buffer set, solver options) with the per-request parameters —
/// required periods, rewritable capacity caps, phase-1 vectors — wildcarded.
/// Two requests with equal keys share a warm session inside one engine; the
/// service dispatcher hashes this key to route requests of one structure to
/// the worker whose pool already holds it (structure affinity).
std::string request_structure_key(const Request& request);

}  // namespace bbs::api
