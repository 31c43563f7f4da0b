#include "bbs/service/dispatcher.hpp"

#include <deque>
#include <iterator>
#include <mutex>
#include <thread>

#include "bbs/common/hash.hpp"
#include "bbs/service/bounded_queue.hpp"
#include "bbs/service/fault_injector.hpp"
#include "bbs/telemetry/service_telemetry.hpp"
#include "bbs/telemetry/structure_cache.hpp"
#include "bbs/telemetry/trace.hpp"

namespace bbs::service {

namespace {

struct Task {
  api::Request request;
  Dispatcher::Completion done;
  /// Execution control handed to the engine. Its deadline is stamped at
  /// enqueue (max() = none): the request's budget starts ticking when it
  /// joins the queue, not when a worker finally picks it up. The worker
  /// adds failpoints and the trace sink before the run.
  solver::SolveControl control;
  /// Enqueue timestamp: queue_ms — histogram and response diagnostic alike —
  /// is measured from here to engine start on one clock.
  solver::CancelToken::Clock::time_point enqueued =
      solver::CancelToken::Clock::now();
  /// Telemetry keys, stamped at submit so run_task never recomputes the
  /// structure key.
  telemetry::RequestKind kind = telemetry::RequestKind::kOther;
  std::uint64_t key_hash = 0;
  /// Trace of a traced request (null for the allocation-free hot path).
  std::shared_ptr<telemetry::Trace> trace;
};

/// The error response of a task that never reached an engine (shed while
/// queued, or dropped by a non-draining stop).
api::Response shed_response(const Task& task, api::ErrorCode code,
                            std::string message) {
  api::Response response;
  response.id = task.request.id;
  response.kind = task.request.kind();
  response.status = api::ResponseStatus::kError;
  response.error = std::move(message);
  response.error_code = code;
  return response;
}

}  // namespace

struct Dispatcher::Worker {
  Worker(std::size_t index_, std::size_t queue_capacity,
         api::EngineOptions engine_options)
      : index(index_), queue(queue_capacity), engine(engine_options) {}

  const std::size_t index;
  BoundedQueue<Task> queue;
  // Touched only by the worker thread after construction.
  api::Engine engine;
  // Mirror of the engine counters, refreshed by the worker after every
  // request so stats() never reads the engine concurrently with a solve.
  mutable std::mutex stats_mutex;
  api::EngineStats stats;
  std::size_t pooled_sessions = 0;
  std::uint64_t stolen = 0;  ///< guarded by stats_mutex
  // Deadline/cancellation outcome counters, guarded by stats_mutex.
  std::uint64_t deadline_shed = 0;
  std::uint64_t timed_out_mid_solve = 0;
  std::uint64_t cancelled = 0;
  std::thread thread;
};

Dispatcher::Dispatcher(DispatcherOptions options) : options_(options) {
  if (options_.workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.workers = hw > 0 ? hw : 1;
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(i, options_.queue_capacity,
                                                options_.engine));
  }
  // Pre-warm from the persistent structure cache before any worker thread
  // exists: each entry is reconstructed into the pool of the worker its key
  // routes to, so the first real request of a cached structure is a pool
  // hit with a loaded (not derived) symbolic analysis. Failures are counted
  // on the cache, never fatal.
  if (options_.engine.structure_cache != nullptr) {
    for (const telemetry::CacheEntry& entry :
         options_.engine.structure_cache->entries()) {
      Worker& worker =
          *workers_[std::hash<std::string>{}(entry.key) % workers_.size()];
      worker.engine.prewarm_entry(entry);
    }
    for (auto& worker : workers_) {
      // Seed the stats mirrors so a stats request before the first task
      // already reports the pre-warmed pools.
      worker->stats = worker->engine.stats();
      worker->pooled_sessions = worker->engine.pooled_sessions();
    }
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { worker_loop(*w); });
  }
}

Dispatcher::~Dispatcher() { stop(/*drain=*/true); }

void Dispatcher::worker_loop(Worker& worker) {
  // Steal target: the peer with the deepest backlog right now. Depths are
  // sampled racily (each queue's size() takes its own mutex), which is
  // fine — a stale choice only means a slightly less-deep victim, and the
  // try_pop() itself is exactly-once.
  const auto try_steal = [&]() -> std::optional<Task> {
    Worker* victim = nullptr;
    std::size_t deepest = 0;
    for (const auto& peer : workers_) {
      if (peer.get() == &worker) continue;
      const std::size_t depth = peer->queue.size();
      if (depth > deepest) {
        deepest = depth;
        victim = peer.get();
      }
    }
    if (victim == nullptr) return std::nullopt;
    return victim->queue.try_pop();
  };

  const auto complete = [](Task& task, api::Response response) {
    if (!task.done) return;
    try {
      task.done(std::move(response));
    } catch (...) {
      // Completions are documented not to throw; swallowing here keeps a
      // misbehaving connection from killing the worker (and with it every
      // other client routed to this shard).
    }
  };

  const auto run_task = [&](Task task, bool was_steal) {
    FaultInjector& faults = FaultInjector::instance();
    if (faults.enabled()) {
      // worker.delay_ms inflates queue wait deterministically (the chaos
      // tests drive the shedding paths with it); ipm.fail_at forces the
      // solver into a numerical failure at a chosen iteration.
      if (const int delay = faults.worker_delay_ms(); delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      if (const int fail_at = faults.ipm_fail_at(); fail_at >= 0) {
        task.control.fail_at_iteration = fail_at;
      }
      if (const int fail_once = faults.ipm_fail_once(); fail_once >= 0) {
        // Scoped to the first attempt only: the recovery ladder rescues the
        // solve, observable through the recovered_solves stats.
        task.control.fail_at_iteration = fail_once;
        task.control.fail_only_first_attempt = true;
      }
    }

    // Shedding: a task whose budget is already spent (or whose client is
    // gone) is answered without touching the engine — under overload the
    // scarce resource is solver time, and burning it on answers nobody
    // can use anymore only deepens the backlog.
    const bool was_cancelled =
        task.control.cancel != nullptr && task.control.cancel->cancelled();
    const bool queue_expired =
        !was_cancelled &&
        solver::CancelToken::Clock::now() >= task.control.deadline;
    // Queue wait ends here, whether the task runs or is shed (the injected
    // worker delay above deliberately counts as queue wait).
    const double queue_ms =
        std::chrono::duration<double, std::milli>(
            solver::CancelToken::Clock::now() - task.enqueued)
            .count();
    telemetry::ServiceTelemetry* telemetry = options_.telemetry;
    if (telemetry != nullptr) {
      telemetry->histogram(task.kind, telemetry::Stage::kQueue)
          .record(queue_ms);
    }
    if (task.trace != nullptr) {
      // The queue span closes at dequeue whether the task runs or is shed.
      task.trace->add_span(
          "queue", queue_ms,
          {{"worker", static_cast<double>(worker.index)},
           {"stolen", was_steal ? 1.0 : 0.0}});
    }
    if (was_cancelled || queue_expired) {
      {
        std::lock_guard<std::mutex> lock(worker.stats_mutex);
        if (was_steal) ++worker.stolen;
        if (was_cancelled) {
          ++worker.cancelled;
        } else {
          ++worker.deadline_shed;
        }
      }
      api::Response response =
          was_cancelled
              ? shed_response(task, api::ErrorCode::kCancelled,
                              "request was cancelled while queued")
              : shed_response(
                    task, api::ErrorCode::kDeadlineExceeded,
                    "deadline expired while the request was queued");
      response.diagnostics.queue_ms = queue_ms;
      if (task.trace != nullptr) {
        // Terminal event: the trace never reaches an engine. The session
        // closes the trace after the write stage.
        task.trace->add_event("shed",
                              was_cancelled ? "cancelled" : "deadline");
        response.diagnostics.trace_id = task.trace->id();
      }
      complete(task, std::move(response));
      return;
    }

    if (task.trace != nullptr && task.request.options.trace_ipm) {
      task.control.trace_sink = task.trace.get();
    }
    api::Response response =
        worker.engine.run(task.request, std::move(task.control));
    response.diagnostics.queue_ms = queue_ms;
    if (task.trace != nullptr) {
      task.trace->add_span(
          "solve", response.diagnostics.solve_ms,
          {{"pool_hit", response.diagnostics.session_reused ? 1.0 : 0.0},
           {"ipm_iterations",
            static_cast<double>(response.diagnostics.ipm_iterations)},
           {"solves", static_cast<double>(response.diagnostics.solves)}});
      response.diagnostics.trace_id = task.trace->id();
    }
    if (telemetry != nullptr) {
      telemetry->histogram(task.kind, telemetry::Stage::kSolve)
          .record(response.diagnostics.solve_ms);
      telemetry::StructureObservation observation;
      observation.pool_hit = response.diagnostics.session_reused;
      observation.solves =
          static_cast<std::uint64_t>(response.diagnostics.solves);
      observation.ipm_iterations =
          static_cast<std::uint64_t>(response.diagnostics.ipm_iterations);
      observation.warm_started_solves = static_cast<std::uint64_t>(
          response.diagnostics.warm_started_solves);
      observation.recovered_solves =
          static_cast<std::uint64_t>(response.diagnostics.recovered_solves);
      telemetry->record_structure(task.key_hash, observation);
    }
    {
      std::lock_guard<std::mutex> lock(worker.stats_mutex);
      worker.stats = worker.engine.stats();
      worker.pooled_sessions = worker.engine.pooled_sessions();
      if (was_steal) ++worker.stolen;
      if (response.error_code == api::ErrorCode::kDeadlineExceeded) {
        ++worker.timed_out_mid_solve;
      } else if (response.error_code == api::ErrorCode::kCancelled) {
        ++worker.cancelled;
      }
    }
    complete(task, std::move(response));
  };

  if (!options_.work_stealing) {
    while (std::optional<Task> task = worker.queue.pop()) {
      run_task(std::move(*task), /*was_steal=*/false);
    }
    return;
  }
  for (;;) {
    // Own queue first — affinity work never yields to a steal.
    std::optional<Task> task = worker.queue.try_pop();
    bool was_steal = false;
    if (!task) {
      task = try_steal();
      was_steal = task.has_value();
    }
    if (!task) {
      // Idle: block briefly on the own queue, then rescan the peers. The
      // timeout is what turns a hot peer backlog into a steal at most one
      // poll interval later.
      task = worker.queue.pop_for(options_.steal_poll_interval);
      if (!task) {
        // closed-and-empty is stable (a closed queue accepts no pushes),
        // so this is the drain-complete exit, not a race. Peers still
        // draining their own backlogs do so on their own threads.
        if (worker.queue.closed() && worker.queue.size() == 0) break;
        continue;
      }
    }
    run_task(std::move(*task), was_steal);
  }
}

std::size_t Dispatcher::route(const api::Request& request) const {
  return std::hash<std::string>{}(api::request_structure_key(request)) %
         workers_.size();
}

std::size_t Dispatcher::queue_depth(std::size_t worker) const {
  return workers_[worker]->queue.size();
}

bool Dispatcher::submit(api::Request request, Completion done,
                        std::shared_ptr<solver::CancelToken> cancel,
                        std::shared_ptr<telemetry::Trace> trace) {
  Task task;
  if (request.options.deadline_ms > 0.0) {
    task.control.deadline =
        solver::CancelToken::Clock::now() +
        std::chrono::duration_cast<solver::CancelToken::Clock::duration>(
            std::chrono::duration<double, std::milli>(
                request.options.deadline_ms));
  }
  task.control.cancel = std::move(cancel);
  const std::string key = api::request_structure_key(request);
  Worker& worker = *workers_[std::hash<std::string>{}(key) % workers_.size()];
  task.key_hash = common::fnv1a_64(key);
  task.kind = telemetry::request_kind_from_string(request.kind());
  task.request = std::move(request);
  task.done = std::move(done);
  task.trace = std::move(trace);
  if (task.trace != nullptr) {
    telemetry::TraceEvent event;
    event.name = "enqueue";
    event.t_ms = -1.0;  // stamp at push, not at TraceEvent construction
    event.attrs = {{"worker", static_cast<double>(worker.index)},
                   {"queue_depth", static_cast<double>(worker.queue.size())}};
    task.trace->add_event(std::move(event));
  }
  return worker.queue.push(std::move(task));
}

void Dispatcher::stop(bool drain) {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  std::deque<Task> dropped;
  for (auto& worker : workers_) {
    if (drain) {
      worker->queue.close();
    } else {
      std::deque<Task> taken = worker->queue.close_and_take();
      std::move(taken.begin(), taken.end(), std::back_inserter(dropped));
    }
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Every accepted submit owes its caller a completion, even on fast
  // abort: a JsonlSession counts completions against consumed lines, and
  // silently dropping a task would hang its finish() forever. The dropped
  // work is answered with a shutdown error instead of being executed.
  for (Task& task : dropped) {
    if (!task.done) continue;
    try {
      api::Response response = shed_response(
          task, api::ErrorCode::kShuttingDown, "service is shutting down");
      if (task.trace != nullptr) {
        task.trace->add_event("shed", "shutdown");
        response.diagnostics.trace_id = task.trace->id();
      }
      task.done(std::move(response));
    } catch (...) {
      // Completions are documented not to throw (see worker_loop).
    }
  }
}

ServiceStats Dispatcher::stats() const {
  ServiceStats total;
  total.workers.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WorkerStats ws;
    ws.worker = worker->index;
    {
      std::lock_guard<std::mutex> lock(worker->stats_mutex);
      ws.engine = worker->stats;
      ws.pooled_sessions = worker->pooled_sessions;
      ws.stolen = worker->stolen;
      ws.deadline_shed = worker->deadline_shed;
      ws.timed_out_mid_solve = worker->timed_out_mid_solve;
      ws.cancelled = worker->cancelled;
    }
    ws.queue_depth = worker->queue.size();
    total.stolen += ws.stolen;
    total.deadline_shed += ws.deadline_shed;
    total.timed_out_mid_solve += ws.timed_out_mid_solve;
    total.cancelled += ws.cancelled;
    total.requests += ws.engine.requests;
    total.ok += ws.engine.ok;
    total.infeasible += ws.engine.infeasible;
    total.errors += ws.engine.errors;
    total.warm_hits += ws.engine.pool_hits;
    total.symbolic_factorisations += ws.engine.symbolic_factorisations;
    total.recovered_solves += ws.engine.recovered_solves;
    total.prewarmed_sessions += ws.engine.prewarmed_sessions;
    total.queue_depth += ws.queue_depth;
    total.workers.push_back(std::move(ws));
  }
  return total;
}

}  // namespace bbs::service
