// Chaos / robustness tests: end-to-end deadlines, cooperative cancellation
// and overload shedding, driven by the deterministic fault-injection
// harness (service/fault_injector.hpp).
//
// The invariants under test:
//   - an interrupted solve (cancelled or timed out) is terminal but
//     harmless: the session that ran it keeps its program, workspace and
//     one-time symbolic factorisation, and the next solve succeeds;
//   - a request whose deadline expires while still queued is shed without
//     any solver work (ServiceStats::deadline_shed moves, engine solves do
//     not);
//   - overload rejections are immediate, retryable, and clear once the
//     backlog drains;
//   - every rejection path carries a machine-readable error_code.
//
// Suite names start with "Service" so the sanitizer/TSan CI legs
// (ctest -R '^Service...') pick them up.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bbs/api/engine.hpp"
#include "bbs/common/assert.hpp"
#include "bbs/core/solver_session.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/io/json.hpp"
#include "bbs/service/dispatcher.hpp"
#include "bbs/service/fault_injector.hpp"
#include "bbs/service/jsonl_stream.hpp"
#include "bbs/service/runtime_config.hpp"
#include "bbs/solver/cancel.hpp"
#include "testing/support.hpp"

namespace bbs {
namespace {

using api::ErrorCode;
using api::Request;
using api::Response;
using api::ResponseStatus;
using service::Dispatcher;
using service::DispatcherOptions;
using service::FaultInjector;
using service::JsonlSession;
using service::RuntimeConfig;
using service::ServiceStats;
using solver::CancelToken;
using solver::SolveControl;
using solver::SolveStatus;

using Clock = CancelToken::Clock;

Request solve_request(model::Configuration config, std::string id) {
  Request request;
  request.id = std::move(id);
  request.payload = api::SolveRequest{std::move(config)};
  return request;
}

std::string request_line(const Request& request) {
  return io::write_json_compact(io::request_to_json_value(request));
}

/// RAII failpoint teardown: the injector is process-wide, so every test
/// that arms it must disarm on all exits.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

// ---------------------------------------------------------------------------
// SolverSession under interruption
// ---------------------------------------------------------------------------

TEST(ServiceChaosSession, CancelledSolveLeavesSessionReusable) {
  core::SolverSession session(testing::paper_t1());

  SolveControl control;
  control.cancel = std::make_shared<CancelToken>();
  control.cancel->cancel();  // already cancelled: the solve stops at entry
  session.set_solve_control(control);

  const core::MappingResult interrupted = session.solve();
  EXPECT_EQ(interrupted.status, SolveStatus::kCancelled);
  EXPECT_TRUE(interrupted.interrupted());
  EXPECT_FALSE(interrupted.feasible());

  // The interruption refreshed no warm snapshot and invalidated nothing:
  // the very next solve succeeds on the same program and workspace, and
  // the one-time symbolic factorisation is still the only one ever done.
  session.set_solve_control({});
  const core::MappingResult result = session.solve();
  EXPECT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(session.workspace().kkt()->stats().symbolic_factorisations, 1);
}

TEST(ServiceChaosSession, ExpiredDeadlineTimesOutWithinOneIteration) {
  core::SolverSession session(testing::paper_t1());

  SolveControl control;
  control.deadline = Clock::now() - std::chrono::milliseconds(1);
  session.set_solve_control(control);

  const core::MappingResult timed_out = session.solve();
  EXPECT_EQ(timed_out.status, SolveStatus::kTimedOut);
  EXPECT_TRUE(timed_out.interrupted());
  // Cooperative termination: the deadline is checked once per iteration,
  // and an already expired one stops the solve before the first step.
  EXPECT_LE(timed_out.ipm_iterations, 1);

  session.set_solve_control({});
  const core::MappingResult result = session.solve();
  EXPECT_EQ(result.status, SolveStatus::kOptimal);
  EXPECT_EQ(session.workspace().kkt()->stats().symbolic_factorisations, 1);
}

TEST(ServiceChaosSession, InterruptedProbeAbortsSearchDrivers) {
  // A bisection that misread an interrupted probe as "infeasible" would
  // silently tighten its bracket on garbage; throw_if_interrupted converts
  // the interruption into a typed exception instead.
  core::MappingResult timed_out;
  timed_out.status = SolveStatus::kTimedOut;
  EXPECT_THROW(core::throw_if_interrupted(timed_out), DeadlineExceeded);
  core::MappingResult cancelled;
  cancelled.status = SolveStatus::kCancelled;
  EXPECT_THROW(core::throw_if_interrupted(cancelled), Cancelled);
  core::MappingResult fine;
  fine.status = SolveStatus::kPrimalInfeasible;
  EXPECT_NO_THROW(core::throw_if_interrupted(fine));
}

// ---------------------------------------------------------------------------
// Engine: structured errors and pooled-session survival
// ---------------------------------------------------------------------------

TEST(ServiceChaosEngine, ExpiredDeadlineYieldsStructuredErrorAndWarmPool) {
  api::Engine engine;
  const Request request = solve_request(testing::paper_t1(), "dl");

  SolveControl control;
  control.deadline = Clock::now() - std::chrono::milliseconds(1);
  const Response expired = engine.run(request, control);
  EXPECT_EQ(expired.status, ResponseStatus::kError);
  EXPECT_EQ(expired.error_code, ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(api::is_retryable(expired.error_code));
  EXPECT_FALSE(expired.error.empty());

  // The pooled session that served the interrupted request stays warm: the
  // retry is a pool hit and re-uses the one symbolic factorisation.
  const Response retry = engine.run(request);
  EXPECT_EQ(retry.status, ResponseStatus::kOk);
  EXPECT_EQ(retry.error_code, ErrorCode::kNone);
  EXPECT_TRUE(retry.diagnostics.session_reused);
  EXPECT_EQ(retry.diagnostics.symbolic_factorisations, 1);
  EXPECT_EQ(engine.stats().pool_hits, 1u);
}

TEST(ServiceChaosEngine, CancelTokenInterruptsAndSessionRecovers) {
  api::Engine engine;
  const Request request = solve_request(testing::paper_t1(), "ct");

  SolveControl control;
  control.cancel = std::make_shared<CancelToken>();
  control.cancel->cancel();
  const Response cancelled = engine.run(request, control);
  EXPECT_EQ(cancelled.status, ResponseStatus::kError);
  EXPECT_EQ(cancelled.error_code, ErrorCode::kCancelled);

  // The token is per-request: the next run of the same request through the
  // same pooled session must not inherit it.
  const Response retry = engine.run(request);
  EXPECT_EQ(retry.status, ResponseStatus::kOk);
  EXPECT_TRUE(retry.diagnostics.session_reused);
  EXPECT_EQ(retry.diagnostics.symbolic_factorisations, 1);
}

TEST(ServiceChaosEngine, DeadlineMsOptionIsHonoured) {
  api::Engine engine;
  Request request = solve_request(testing::paper_t1(), "opt-dl");
  request.options.deadline_ms = 1e-6;  // expires effectively immediately

  const Response response = engine.run(request);
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_code, ErrorCode::kDeadlineExceeded);

  request.options.deadline_ms = 0.0;
  EXPECT_EQ(engine.run(request).status, ResponseStatus::kOk);
}

// ---------------------------------------------------------------------------
// Dispatcher: queue-expiry shedding and cancellation
// ---------------------------------------------------------------------------

TEST(ServiceChaosDispatcher, QueueExpiredTaskIsShedWithoutSolverWork) {
  DispatcherOptions options;
  options.workers = 1;
  options.work_stealing = false;
  Dispatcher dispatcher(options);

  // Park the single worker inside the completion of a normal request, so
  // everything submitted meanwhile waits in the queue.
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::promise<void> parked;
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "blocker"),
                                [&](Response) {
                                  parked.set_value();
                                  release_future.wait();
                                }));
  parked.get_future().wait();

  // Enqueue a request whose budget is far too small to survive the park.
  Request doomed = solve_request(testing::paper_t1(), "doomed");
  doomed.options.deadline_ms = 5.0;
  std::promise<Response> doomed_response;
  ASSERT_TRUE(dispatcher.submit(std::move(doomed), [&](Response r) {
    doomed_response.set_value(std::move(r));
  }));

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const ServiceStats before = dispatcher.stats();
  release.set_value();

  const Response shed = doomed_response.get_future().get();
  EXPECT_EQ(shed.status, ResponseStatus::kError);
  EXPECT_EQ(shed.error_code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(shed.id, "doomed");

  dispatcher.stop(/*drain=*/true);
  const ServiceStats after = dispatcher.stats();
  EXPECT_EQ(after.deadline_shed, 1u);
  EXPECT_EQ(after.timed_out_mid_solve, 0u);
  // The shed request never reached the engine: exactly the blocker's solve.
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.requests, 1u);
  for (const auto& ws : after.workers) {
    EXPECT_EQ(ws.engine.solves, 1u);
  }
}

TEST(ServiceChaosDispatcher, CancelTokenShedsQueuedTasks) {
  DispatcherOptions options;
  options.workers = 1;
  options.work_stealing = false;
  Dispatcher dispatcher(options);

  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::promise<void> parked;
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "blocker"),
                                [&](Response) {
                                  parked.set_value();
                                  release_future.wait();
                                }));
  parked.get_future().wait();

  auto token = std::make_shared<CancelToken>();
  std::promise<Response> queued_response;
  ASSERT_TRUE(dispatcher.submit(
      solve_request(testing::paper_t1(), "queued"),
      [&](Response r) { queued_response.set_value(std::move(r)); }, token));

  token->cancel();  // the client went away while its request was queued
  release.set_value();

  const Response shed = queued_response.get_future().get();
  EXPECT_EQ(shed.status, ResponseStatus::kError);
  EXPECT_EQ(shed.error_code, ErrorCode::kCancelled);

  dispatcher.stop(/*drain=*/true);
  const ServiceStats stats = dispatcher.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.deadline_shed, 0u);
  EXPECT_EQ(stats.requests, 1u);  // only the blocker was solved
}

// ---------------------------------------------------------------------------
// JSONL session: overload shedding, hot config reload, error codes
// ---------------------------------------------------------------------------

TEST(ServiceChaosJsonl, OverloadRejectionIsRetryableAndClears) {
  DispatcherOptions options;
  options.workers = 1;
  options.work_stealing = false;
  options.queue_capacity = 8;
  Dispatcher dispatcher(options);

  auto config = std::make_shared<RuntimeConfig>();
  config->queue_high_water.store(1);

  service::SessionOptions session_options;
  session_options.runtime_config = config;
  int overload_hook_calls = 0;
  session_options.on_overload_rejection = [&] { ++overload_hook_calls; };

  std::vector<std::string> lines;
  JsonlSession session(
      dispatcher, [&](const std::string& line) { lines.push_back(line); },
      session_options);

  // Park the worker, then put one task in the queue: depth == high water.
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::promise<void> parked;
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "blocker"),
                                [&](Response) {
                                  parked.set_value();
                                  release_future.wait();
                                }));
  parked.get_future().wait();
  session.submit_line(request_line(solve_request(testing::paper_t1(), "q1")));

  // The next line meets a queue at the high-water mark: immediate
  // retryable rejection, no enqueue.
  session.submit_line(
      request_line(solve_request(testing::paper_t1(), "rejected")));
  EXPECT_EQ(overload_hook_calls, 1);

  release.set_value();
  // Wait for the backlog to drain below the high-water mark, then the
  // retry the rejection asked for goes through.
  while (dispatcher.queue_depth(0) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  session.submit_line(
      request_line(solve_request(testing::paper_t1(), "retry")));
  const service::StreamSummary summary = session.finish();

  EXPECT_EQ(summary.overload_rejections, 1u);
  EXPECT_EQ(summary.errors, 1u);  // only the overload rejection
  EXPECT_EQ(summary.ok, 2u);      // q1 and the successful retry

  // The rejection line carries the retryable `overloaded` code, in order
  // (q1 was accepted first but completes later; ordering is by line).
  ASSERT_EQ(lines.size(), 3u);
  const Response rejected = io::response_from_json(lines[1]);
  EXPECT_EQ(rejected.error_code, ErrorCode::kOverloaded);
  EXPECT_TRUE(api::is_retryable(rejected.error_code));
  EXPECT_EQ(io::response_from_json(lines[2]).status, ResponseStatus::kOk);

  dispatcher.stop(/*drain=*/true);
}

TEST(ServiceChaosJsonl, SetConfigHotReloadsLimitsAndShowsInStats) {
  Dispatcher dispatcher(DispatcherOptions{});
  auto config = std::make_shared<RuntimeConfig>();

  service::SessionOptions session_options;
  session_options.runtime_config = config;
  std::string logged;
  session_options.on_config_change = [&](const std::string& description) {
    logged = description;
  };

  std::vector<std::string> lines;
  JsonlSession session(
      dispatcher, [&](const std::string& line) { lines.push_back(line); },
      session_options);

  session.submit_line(
      R"({"kind":"set_config","max_in_flight":8,"default_deadline_ms":500,)"
      R"("queue_high_water":4})");
  session.submit_line(R"({"kind":"stats","id":"after"})");
  const service::StreamSummary summary = session.finish();
  EXPECT_EQ(summary.errors, 0u);

  // The reload took effect immediately...
  EXPECT_EQ(config->max_in_flight.load(), 8u);
  EXPECT_EQ(config->default_deadline_ms.load(), 500u);
  EXPECT_EQ(config->queue_high_water.load(), 4u);
  EXPECT_NE(logged.find("max_in_flight"), std::string::npos);

  // ...was acknowledged on its own line...
  ASSERT_EQ(lines.size(), 2u);
  const io::JsonValue ack = io::parse_json(lines[0]);
  EXPECT_EQ(ack.as_object().at("kind").as_string(), "set_config");
  EXPECT_EQ(ack.as_object().at("status").as_string(), "ok");

  // ...and is observable in the next stats snapshot's config section.
  const io::JsonValue stats = io::parse_json(lines[1]);
  const io::JsonObject& result = stats.as_object().at("result").as_object();
  ASSERT_TRUE(result.contains("config"));
  EXPECT_EQ(result.at("config").as_object().at("max_in_flight").as_number(),
            8.0);
  EXPECT_EQ(
      result.at("config").as_object().at("default_deadline_ms").as_number(),
      500.0);

  dispatcher.stop(/*drain=*/true);
}

TEST(ServiceChaosJsonl, SetConfigRejectsUnknownKeysAndBadValues) {
  Dispatcher dispatcher(DispatcherOptions{});
  auto config = std::make_shared<RuntimeConfig>();
  service::SessionOptions session_options;
  session_options.runtime_config = config;

  std::vector<std::string> lines;
  JsonlSession session(
      dispatcher, [&](const std::string& line) { lines.push_back(line); },
      session_options);
  session.submit_line(R"({"kind":"set_config","not_a_knob":1})");
  session.submit_line(R"({"kind":"set_config","max_in_flight":"many"})");
  const service::StreamSummary summary = session.finish();

  EXPECT_EQ(summary.errors, 2u);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const Response response = io::response_from_json(line);
    EXPECT_EQ(response.status, ResponseStatus::kError);
    EXPECT_EQ(response.error_code, ErrorCode::kParse);
  }
  EXPECT_EQ(config->max_in_flight.load(), 0u);  // nothing was applied

  dispatcher.stop(/*drain=*/true);
}

TEST(ServiceChaosJsonl, ErrorCodesOnParseQuotaAndShutdownPaths) {
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);

  // Parse failure -> `parse`.
  {
    std::vector<std::string> lines;
    JsonlSession session(dispatcher, [&](const std::string& line) {
      lines.push_back(line);
    });
    session.submit_line("this is not json");
    session.finish();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(io::response_from_json(lines[0]).error_code, ErrorCode::kParse);
  }

  // Rate-limit quota -> `over_quota`, retryable.
  {
    service::SessionOptions session_options;
    session_options.requests_per_second = 0.001;
    session_options.burst = 1.0;
    std::vector<std::string> lines;
    JsonlSession session(
        dispatcher,
        [&](const std::string& line) { lines.push_back(line); },
        session_options);
    const std::string line =
        request_line(solve_request(testing::paper_t1(), "q"));
    session.submit_line(line);  // consumes the single burst token
    session.submit_line(line);  // over quota
    const service::StreamSummary summary = session.finish();
    EXPECT_EQ(summary.quota_rejections, 1u);
    ASSERT_EQ(lines.size(), 2u);
    const Response rejected = io::response_from_json(lines[1]);
    EXPECT_EQ(rejected.error_code, ErrorCode::kOverQuota);
    EXPECT_TRUE(api::is_retryable(rejected.error_code));
  }

  // The same tiny rate through a hot-reloadable RuntimeConfig: a sub-milli
  // rate must still reject (regression: an integer millirequests/s
  // encoding rounded 1e-6 req/s down to 0 = unlimited).
  {
    auto config = std::make_shared<RuntimeConfig>();
    config->set_requests_per_second(1e-6);
    service::SessionOptions session_options;
    session_options.runtime_config = config;
    std::vector<std::string> lines;
    JsonlSession session(
        dispatcher,
        [&](const std::string& line) { lines.push_back(line); },
        session_options);
    const std::string line =
        request_line(solve_request(testing::paper_t1(), "q2"));
    session.submit_line(line);
    session.submit_line(line);
    const service::StreamSummary summary = session.finish();
    EXPECT_EQ(summary.quota_rejections, 1u);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(io::response_from_json(lines[1]).error_code,
              ErrorCode::kOverQuota);
  }

  // Submit after stop -> `shutting_down`, retryable.
  dispatcher.stop(/*drain=*/true);
  {
    std::vector<std::string> lines;
    JsonlSession session(dispatcher, [&](const std::string& line) {
      lines.push_back(line);
    });
    session.submit_line(request_line(solve_request(testing::paper_t1(), "s")));
    session.finish();
    ASSERT_EQ(lines.size(), 1u);
    const Response rejected = io::response_from_json(lines[0]);
    EXPECT_EQ(rejected.error_code, ErrorCode::kShuttingDown);
    EXPECT_TRUE(api::is_retryable(rejected.error_code));
  }
}

// ---------------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------------

TEST(ServiceChaosFaults, SpecParsingAndDescribe) {
  FaultGuard guard;
  FaultInjector& faults = FaultInjector::instance();
  EXPECT_FALSE(faults.enabled());

  faults.configure("worker.delay_ms=25; ipm.fail_at=3");
  EXPECT_TRUE(faults.enabled());
  EXPECT_EQ(faults.worker_delay_ms(), 25);
  EXPECT_EQ(faults.ipm_fail_at(), 3);
  EXPECT_EQ(faults.outbox_stall_ms(), 0);
  EXPECT_EQ(faults.describe(), "worker.delay_ms=25;ipm.fail_at=3");

  faults.clear();
  EXPECT_FALSE(faults.enabled());
  EXPECT_EQ(faults.worker_delay_ms(), 0);
  EXPECT_EQ(faults.ipm_fail_at(), -1);
}

TEST(ServiceChaosFaults, RejectsUnknownAndMalformedFailpoints) {
  FaultGuard guard;
  FaultInjector& faults = FaultInjector::instance();
  EXPECT_THROW(faults.configure("no.such.failpoint=1"), ModelError);
  EXPECT_THROW(faults.configure("worker.delay_ms"), ModelError);
  EXPECT_THROW(faults.configure("worker.delay_ms=abc"), ModelError);
  EXPECT_FALSE(faults.enabled());
}

TEST(ServiceChaosFaults, InjectedIpmFailureIsAHardNumericalError) {
  FaultGuard guard;
  // Forced failure at iteration 0: the engine must report a structured
  // numerical_failure, never rescue it into an optimum, and the pooled
  // session must survive for the next (clean) request.
  FaultInjector::instance().configure("ipm.fail_at=0");

  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  std::promise<Response> failed;
  ASSERT_TRUE(dispatcher.submit(
      solve_request(testing::paper_t1(), "inject"),
      [&](Response r) { failed.set_value(std::move(r)); }));
  const Response response = failed.get_future().get();
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_code, ErrorCode::kNumericalFailure);
  EXPECT_FALSE(api::is_retryable(response.error_code));

  FaultInjector::instance().clear();
  std::promise<Response> clean;
  ASSERT_TRUE(dispatcher.submit(
      solve_request(testing::paper_t1(), "clean"),
      [&](Response r) { clean.set_value(std::move(r)); }));
  const Response recovered = clean.get_future().get();
  EXPECT_EQ(recovered.status, ResponseStatus::kOk);
  EXPECT_TRUE(recovered.diagnostics.session_reused);
  EXPECT_EQ(recovered.diagnostics.symbolic_factorisations, 1);

  dispatcher.stop(/*drain=*/true);
}

TEST(ServiceChaosFaults, WorkerDelayDrivesDeadlineShedding) {
  FaultGuard guard;
  // worker.delay_ms guarantees every task waits at least 40ms between pop
  // and execution, so a 5ms end-to-end budget must be shed or time out —
  // the same chaos recipe daemon_smoke.sh runs against a live daemon.
  FaultInjector::instance().configure("worker.delay_ms=40");

  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  Request request = solve_request(testing::paper_t1(), "chaos");
  request.options.deadline_ms = 5.0;
  std::promise<Response> done;
  ASSERT_TRUE(dispatcher.submit(std::move(request), [&](Response r) {
    done.set_value(std::move(r));
  }));
  const Response response = done.get_future().get();
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_code, ErrorCode::kDeadlineExceeded);

  dispatcher.stop(/*drain=*/true);
  const ServiceStats stats = dispatcher.stats();
  EXPECT_EQ(stats.deadline_shed + stats.timed_out_mid_solve, 1u);
  EXPECT_EQ(stats.deadline_shed, 1u);  // expiry happened during the delay
}

}  // namespace
}  // namespace bbs
