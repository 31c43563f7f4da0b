// Service API tests: request/response JSON round-trips, schema negatives,
// and the Engine's batched, session-pooled execution (results equivalent to
// the free-function drivers, one symbolic factorisation per pooled problem
// structure).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "bbs/api/engine.hpp"
#include "bbs/common/assert.hpp"
#include "bbs/core/tradeoff.hpp"
#include "bbs/core/two_phase.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/io/config_io.hpp"
#include "testing/support.hpp"

namespace bbs {
namespace {

using api::Engine;
using api::EngineOptions;
using api::Request;
using api::RequestOptions;
using api::Response;
using api::ResponseStatus;
using core::MappingResult;
using linalg::Index;
using linalg::Vector;

/// Tolerances tight enough that independent solves of one point land on the
/// same side of every rounding boundary (see test_solver_session.cpp).
RequestOptions tight_options() {
  RequestOptions options;
  options.ipm.feas_tol = 1e-7;
  options.ipm.gap_tol = 1e-7;
  return options;
}

core::MappingOptions tight_mapping_options() {
  core::MappingOptions options;
  options.ipm.feas_tol = 1e-7;
  options.ipm.gap_tol = 1e-7;
  return options;
}

void expect_same_mapping(const MappingResult& a, const MappingResult& b,
                         const char* context) {
  ASSERT_EQ(a.status, b.status) << context;
  if (!b.feasible()) return;
  BBS_EXPECT_NEAR_REL(a.objective_continuous, b.objective_continuous, 1e-5);
  BBS_EXPECT_NEAR_REL(a.objective_rounded, b.objective_rounded, 1e-5);
  EXPECT_EQ(a.verified, b.verified) << context;
  ASSERT_EQ(a.graphs.size(), b.graphs.size()) << context;
  for (std::size_t g = 0; g < b.graphs.size(); ++g) {
    ASSERT_EQ(a.graphs[g].tasks.size(), b.graphs[g].tasks.size());
    for (std::size_t t = 0; t < b.graphs[g].tasks.size(); ++t) {
      EXPECT_EQ(a.graphs[g].tasks[t].budget, b.graphs[g].tasks[t].budget)
          << context << " graph " << g << " task " << t;
    }
    ASSERT_EQ(a.graphs[g].buffers.size(), b.graphs[g].buffers.size());
    for (std::size_t bu = 0; bu < b.graphs[g].buffers.size(); ++bu) {
      EXPECT_EQ(a.graphs[g].buffers[bu].capacity,
                b.graphs[g].buffers[bu].capacity)
          << context << " graph " << g << " buffer " << bu;
    }
  }
}

Request solve_request(model::Configuration config, std::string id = "") {
  Request request;
  request.id = std::move(id);
  request.options = tight_options();
  request.payload = api::SolveRequest{std::move(config)};
  return request;
}

// ---------------------------------------------------------------------------
// Request JSON round-trips
// ---------------------------------------------------------------------------

TEST(ApiIo, SolveRequestRoundTrip) {
  Request request = solve_request(testing::paper_t1(), "req-1");
  request.options.verify = false;
  request.options.rounding_eps = 1e-6;
  const std::string text = io::request_to_json(request);
  const Request reparsed = io::request_from_json(text);
  EXPECT_EQ(reparsed.id, "req-1");
  EXPECT_EQ(std::string(reparsed.kind()), "solve");
  EXPECT_FALSE(reparsed.options.verify);
  EXPECT_DOUBLE_EQ(reparsed.options.rounding_eps, 1e-6);
  EXPECT_DOUBLE_EQ(reparsed.options.ipm.gap_tol, 1e-7);
  // Serialised forms are bit-identical: the round-trip is lossless.
  EXPECT_EQ(io::request_to_json(reparsed), text);
}

TEST(ApiIo, SweepRequestRoundTrip) {
  Request request;
  api::SweepRequest r{testing::multi_graph_sweep()};
  r.graph = 1;
  r.cap_lo = 2;
  r.cap_hi = 6;
  request.payload = std::move(r);
  const std::string text = io::request_to_json(request);
  // The graph is referenced by name, like every config-schema reference.
  EXPECT_NE(text.find("\"graph\": \"audio\""), std::string::npos);
  const Request reparsed = io::request_from_json(text);
  const auto& parsed = std::get<api::SweepRequest>(reparsed.payload);
  EXPECT_EQ(parsed.graph, 1);
  EXPECT_EQ(parsed.cap_lo, 2);
  EXPECT_EQ(parsed.cap_hi, 6);
  EXPECT_EQ(io::request_to_json(reparsed), text);
}

TEST(ApiIo, MinPeriodRequestRoundTrip) {
  Request request;
  api::MinPeriodRequest r{testing::paper_t2()};
  r.graph = 0;
  r.period_hi = 40.0;
  r.rel_tol = 1e-3;
  r.flow = api::MinPeriodRequest::Flow::kBudgetFirst;
  request.payload = std::move(r);
  const std::string text = io::request_to_json(request);
  const Request reparsed = io::request_from_json(text);
  const auto& parsed = std::get<api::MinPeriodRequest>(reparsed.payload);
  EXPECT_DOUBLE_EQ(parsed.period_hi, 40.0);
  EXPECT_DOUBLE_EQ(parsed.rel_tol, 1e-3);
  EXPECT_EQ(parsed.flow, api::MinPeriodRequest::Flow::kBudgetFirst);
  EXPECT_EQ(io::request_to_json(reparsed), text);
}

TEST(ApiIo, TwoPhaseRequestRoundTrip) {
  Request request;
  api::TwoPhaseRequest r{testing::paper_t1()};
  r.mode = api::TwoPhaseRequest::Mode::kBufferFirst;
  r.cap_lo = 1;
  r.cap_hi = 4;
  request.payload = std::move(r);
  const std::string text = io::request_to_json(request);
  const Request reparsed = io::request_from_json(text);
  const auto& parsed = std::get<api::TwoPhaseRequest>(reparsed.payload);
  EXPECT_EQ(parsed.mode, api::TwoPhaseRequest::Mode::kBufferFirst);
  EXPECT_EQ(parsed.cap_lo, 1);
  EXPECT_EQ(parsed.cap_hi, 4);
  EXPECT_EQ(io::request_to_json(reparsed), text);
}

TEST(ApiIo, LatencyRequestRoundTrip) {
  Request request;
  api::LatencyRequest r{testing::multi_graph_sweep()};
  r.graph = 0;
  request.payload = std::move(r);
  const std::string text = io::request_to_json(request);
  const Request reparsed = io::request_from_json(text);
  EXPECT_EQ(std::get<api::LatencyRequest>(reparsed.payload).graph, 0);
  EXPECT_EQ(io::request_to_json(reparsed), text);

  // graph == -1 (all graphs) serialises without a graph reference.
  Request all;
  all.payload = api::LatencyRequest{testing::multi_graph_sweep()};
  const std::string all_text = io::request_to_json(all);
  EXPECT_EQ(all_text.find("\"graph\""), std::string::npos);
  EXPECT_EQ(std::get<api::LatencyRequest>(
                io::request_from_json(all_text).payload)
                .graph,
            -1);
}

// ---------------------------------------------------------------------------
// Schema negatives
// ---------------------------------------------------------------------------

TEST(ApiIo, RejectsUnsupportedSchemaVersion) {
  Request request = solve_request(testing::paper_t1());
  io::JsonValue doc = io::request_to_json_value(request);
  doc.as_object()["schema_version"] = io::JsonValue(999);
  EXPECT_THROW(io::request_from_json_value(doc), ModelError);

  Response response;
  response.kind = "solve";
  response.status = ResponseStatus::kError;
  response.error = "x";
  io::JsonValue rdoc = io::response_to_json_value(response);
  rdoc.as_object()["schema_version"] = io::JsonValue(0);
  EXPECT_THROW(io::response_from_json_value(rdoc), ModelError);
}

TEST(ApiIo, RejectsMalformedRequests) {
  // Not an object at all.
  EXPECT_THROW(io::request_from_json("[1, 2]"), ModelError);
  // Missing schema_version / kind / configuration.
  EXPECT_THROW(io::request_from_json("{}"), ModelError);
  EXPECT_THROW(io::request_from_json(R"({"schema_version": 1})"), ModelError);
  EXPECT_THROW(
      io::request_from_json(R"({"schema_version": 1, "kind": "solve"})"),
      ModelError);
  // Unknown kind.
  Request request = solve_request(testing::paper_t1());
  io::JsonValue doc = io::request_to_json_value(request);
  doc.as_object()["kind"] = io::JsonValue(std::string("explode"));
  EXPECT_THROW(io::request_from_json_value(doc), ModelError);

  // Integer fields outside the Index range are rejected, not cast (the
  // unchecked float-to-int conversion would be undefined behaviour).
  Request sweep;
  api::SweepRequest sr{testing::paper_t1()};
  sweep.payload = std::move(sr);
  io::JsonValue sdoc = io::request_to_json_value(sweep);
  sdoc.as_object()["cap_lo"] = io::JsonValue(3.0e9);
  EXPECT_THROW(io::request_from_json_value(sdoc), ModelError);
  sdoc.as_object()["cap_lo"] = io::JsonValue(1.5);
  EXPECT_THROW(io::request_from_json_value(sdoc), ModelError);
}

TEST(ApiIo, RejectsDanglingGraphReferences) {
  Request request;
  api::SweepRequest r{testing::paper_t1()};
  request.payload = std::move(r);
  io::JsonValue doc = io::request_to_json_value(request);
  doc.as_object()["graph"] = io::JsonValue(std::string("no-such-graph"));
  EXPECT_THROW(io::request_from_json_value(doc), ModelError);
  doc.as_object()["graph"] = io::JsonValue(7);
  EXPECT_THROW(io::request_from_json_value(doc), ModelError);
}

TEST(ApiIo, RejectsBadEnums) {
  Request request;
  api::MinPeriodRequest mp{testing::paper_t1()};
  mp.period_hi = 40.0;
  request.payload = std::move(mp);
  io::JsonValue doc = io::request_to_json_value(request);
  doc.as_object()["flow"] = io::JsonValue(std::string("sideways"));
  EXPECT_THROW(io::request_from_json_value(doc), ModelError);

  Request tp;
  tp.payload = api::TwoPhaseRequest{testing::paper_t1()};
  io::JsonValue tdoc = io::request_to_json_value(tp);
  tdoc.as_object()["mode"] = io::JsonValue(std::string("middle_first"));
  EXPECT_THROW(io::request_from_json_value(tdoc), ModelError);
}

// ---------------------------------------------------------------------------
// Engine execution + response round-trips
// ---------------------------------------------------------------------------

TEST(ApiEngine, SolveMatchesFreeFunction) {
  Engine engine;
  const Response response = engine.run(solve_request(testing::paper_t1()));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.kind, "solve");
  const auto& payload = std::get<api::SolvePayload>(response.payload);
  const MappingResult fresh = core::compute_budgets_and_buffers(
      testing::paper_t1(), tight_mapping_options());
  expect_same_mapping(payload.mapping, fresh, "solve");
  EXPECT_TRUE(payload.mapping.verified);
  EXPECT_EQ(response.diagnostics.solves, 1);
  EXPECT_EQ(response.diagnostics.symbolic_factorisations, 1);
  EXPECT_FALSE(response.diagnostics.session_reused);
  EXPECT_GT(response.diagnostics.ipm_iterations, 0);
  EXPECT_GE(response.diagnostics.wall_ms, 0.0);

  // Full response JSON round-trip.
  const std::string text = io::response_to_json(response);
  const Response reparsed = io::response_from_json(text);
  EXPECT_EQ(io::response_to_json(reparsed), text);
  expect_same_mapping(std::get<api::SolvePayload>(reparsed.payload).mapping,
                      payload.mapping, "round-trip");
}

TEST(ApiEngine, SweepMatchesFreeFunction) {
  model::Configuration config = testing::paper_t1();
  const core::TradeoffSweep fresh =
      core::sweep_max_capacity(config, 0, 1, 6, tight_mapping_options());

  Engine engine;
  Request request;
  request.options = tight_options();
  api::SweepRequest r{testing::paper_t1()};
  r.graph = 0;
  r.cap_lo = 1;
  r.cap_hi = 6;
  request.payload = std::move(r);
  const Response response = engine.run(request);
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  const auto& sweep = std::get<api::SweepPayload>(response.payload).sweep;
  ASSERT_EQ(sweep.points.size(), fresh.points.size());
  for (std::size_t i = 0; i < fresh.points.size(); ++i) {
    EXPECT_EQ(sweep.points[i].feasible, fresh.points[i].feasible);
    EXPECT_EQ(sweep.points[i].budgets, fresh.points[i].budgets);
    EXPECT_EQ(sweep.points[i].capacities, fresh.points[i].capacities);
    BBS_EXPECT_NEAR_REL(sweep.points[i].total_budget_continuous,
                        fresh.points[i].total_budget_continuous, 1e-5);
  }
  EXPECT_EQ(response.diagnostics.solves, 6);
  EXPECT_EQ(response.diagnostics.symbolic_factorisations, 1);

  const std::string text = io::response_to_json(response);
  EXPECT_EQ(io::response_to_json(io::response_from_json(text)), text);
}

TEST(ApiEngine, MinPeriodMatchesFreeFunctionBothFlows) {
  model::Configuration config = testing::paper_t1();
  config.mutable_task_graph(0).set_max_capacity(0, 10);

  for (const auto flow : {api::MinPeriodRequest::Flow::kJoint,
                          api::MinPeriodRequest::Flow::kBudgetFirst}) {
    Engine engine;
    Request request;
    request.options = tight_options();
    api::MinPeriodRequest r{config};
    r.graph = 0;
    r.period_hi = 40.0;
    r.rel_tol = 1e-4;
    r.flow = flow;
    request.payload = std::move(r);
    const Response response = engine.run(request);
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    const auto& payload = std::get<api::MinPeriodPayload>(response.payload);
    ASSERT_TRUE(payload.found);

    model::Configuration fresh_config = config;
    const auto fresh =
        flow == api::MinPeriodRequest::Flow::kJoint
            ? core::minimal_feasible_period(fresh_config, 0, 40.0, 1e-4,
                                            tight_mapping_options())
            : core::minimal_feasible_period_budget_first(
                  fresh_config, 0, 40.0, 1e-4, tight_mapping_options());
    ASSERT_TRUE(fresh.has_value());
    BBS_EXPECT_NEAR_REL(payload.period, fresh->period, 1e-9);
    expect_same_mapping(payload.mapping, fresh->mapping, "min_period");
    EXPECT_EQ(response.diagnostics.symbolic_factorisations, 1);
    EXPECT_GT(response.diagnostics.solves, 2);

    const std::string text = io::response_to_json(response);
    EXPECT_EQ(io::response_to_json(io::response_from_json(text)), text);
  }
}

TEST(ApiEngine, MinPeriodInfeasibleCeiling) {
  // A task whose WCET exceeds what even a full budget sustains below the
  // ceiling (cf. test_properties).
  model::Configuration config(1);
  const auto p = config.add_processor("p", 40.0);
  config.add_memory("m", -1.0);
  model::TaskGraph tg("solo", 1.0);
  tg.add_task("t", p, 30.0);
  config.add_task_graph(std::move(tg));

  Engine engine;
  Request request;
  api::MinPeriodRequest r{std::move(config)};
  r.graph = 0;
  r.period_hi = 20.0;
  request.payload = std::move(r);
  const Response response = engine.run(request);
  EXPECT_EQ(response.status, ResponseStatus::kInfeasible);
  EXPECT_FALSE(std::get<api::MinPeriodPayload>(response.payload).found);

  const std::string text = io::response_to_json(response);
  EXPECT_EQ(io::response_to_json(io::response_from_json(text)), text);
}

TEST(ApiEngine, TwoPhaseMatchesFreeFunctions) {
  const model::Configuration config = testing::paper_t2();

  Engine engine;
  Request budget_first;
  budget_first.options = tight_options();
  budget_first.payload = api::TwoPhaseRequest{config};
  const Response bf = engine.run(budget_first);
  ASSERT_EQ(bf.status, ResponseStatus::kOk);
  const auto& bf_payload = std::get<api::TwoPhasePayload>(bf.payload);
  ASSERT_EQ(bf_payload.mappings.size(), 1u);
  expect_same_mapping(
      bf_payload.mappings[0],
      core::solve_budget_first(config, tight_mapping_options()),
      "budget_first");

  Request buffer_first;
  buffer_first.options = tight_options();
  api::TwoPhaseRequest r{config};
  r.mode = api::TwoPhaseRequest::Mode::kBufferFirst;
  r.cap_lo = 1;
  r.cap_hi = 4;
  buffer_first.payload = std::move(r);
  const Response buff = engine.run(buffer_first);
  ASSERT_EQ(buff.status, ResponseStatus::kOk);
  const auto& sweep_payload = std::get<api::TwoPhasePayload>(buff.payload);
  const std::vector<MappingResult> fresh =
      core::sweep_buffer_first(config, 1, 4, tight_mapping_options());
  ASSERT_EQ(sweep_payload.mappings.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    expect_same_mapping(sweep_payload.mappings[i], fresh[i], "buffer_first");
  }
  EXPECT_EQ(buff.diagnostics.symbolic_factorisations, 1);

  const std::string text = io::response_to_json(buff);
  EXPECT_EQ(io::response_to_json(io::response_from_json(text)), text);
}

TEST(ApiEngine, LatencyMatchesFreeFunction) {
  Engine engine;
  Request request;
  request.options = tight_options();
  request.payload = api::LatencyRequest{testing::paper_t2()};
  const Response response = engine.run(request);
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  const auto& payload = std::get<api::LatencyPayload>(response.payload);
  ASSERT_EQ(payload.graphs.size(), 1u);
  ASSERT_TRUE(payload.graphs[0].has_pas);

  // Recompute the bound from the rounded mapping the payload reports.
  Vector budgets;
  std::vector<Index> caps;
  for (const auto& t : payload.mapping.graphs[0].tasks) {
    budgets.push_back(static_cast<double>(t.budget));
  }
  for (const auto& b : payload.mapping.graphs[0].buffers) {
    caps.push_back(b.capacity);
  }
  const auto fresh = core::compute_latency_bounds(testing::paper_t2(), 0,
                                                  budgets, caps);
  ASSERT_TRUE(fresh.has_value());
  BBS_EXPECT_NEAR_REL(payload.graphs[0].latency.worst, fresh->worst, 1e-9);
  EXPECT_EQ(payload.graphs[0].latency.pairs.size(), fresh->pairs.size());

  const std::string text = io::response_to_json(response);
  EXPECT_EQ(io::response_to_json(io::response_from_json(text)), text);
}

TEST(ApiEngine, ErrorsAreReportedPerRequest) {
  Engine engine;
  Request bad;
  api::SweepRequest r{testing::paper_t1()};
  r.graph = 5;  // out of range
  bad.payload = std::move(r);
  std::vector<Request> batch;
  batch.push_back(std::move(bad));
  batch.push_back(solve_request(testing::paper_t1(), "after-error"));

  const std::vector<Response> responses = engine.run_batch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kError);
  EXPECT_NE(responses[0].error.find("graph index"), std::string::npos);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(responses[0].payload));
  // The batch keeps going after a failed request.
  EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].id, "after-error");

  // Error responses round-trip too (payload stays empty).
  const std::string text = io::response_to_json(responses[0]);
  const Response reparsed = io::response_from_json(text);
  EXPECT_EQ(reparsed.status, ResponseStatus::kError);
  EXPECT_EQ(reparsed.error, responses[0].error);
  EXPECT_EQ(io::response_to_json(reparsed), text);
}

// ---------------------------------------------------------------------------
// Session pooling across a batch
// ---------------------------------------------------------------------------

TEST(ApiEngine, BatchPoolsOneSessionPerStructure) {
  // Three solves of the same structure at different periods + one solve of
  // a structurally different system: the first three share one pooled
  // session (symbolic_factorisations stays 1, warm starts kick in), the
  // fourth falls back to a fresh session.
  std::vector<Request> batch;
  for (const double period : {12.0, 14.0, 11.5}) {
    testing::MultiGraphSweepOptions opts;
    opts.period_video = period;
    batch.push_back(solve_request(testing::multi_graph_sweep(opts)));
  }
  batch.push_back(solve_request(testing::paper_t1(), "other-structure"));

  Engine engine;
  const std::vector<Response> responses = engine.run_batch(batch);
  ASSERT_EQ(responses.size(), 4u);
  for (const Response& response : responses) {
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.diagnostics.symbolic_factorisations, 1);
  }
  EXPECT_FALSE(responses[0].diagnostics.session_reused);
  EXPECT_TRUE(responses[1].diagnostics.session_reused);
  EXPECT_TRUE(responses[2].diagnostics.session_reused);
  EXPECT_FALSE(responses[3].diagnostics.session_reused);
  EXPECT_TRUE(responses[1].diagnostics.warm_started_solves == 1);
  EXPECT_EQ(engine.pooled_sessions(), 2u);

  // Pooled answers match fresh one-shot solves.
  for (std::size_t i = 0; i < 3; ++i) {
    expect_same_mapping(
        std::get<api::SolvePayload>(responses[i].payload).mapping,
        core::compute_budgets_and_buffers(batch[i].configuration(),
                                          tight_mapping_options()),
        "pooled batch");
  }
}

TEST(ApiEngine, MixedKindsShareOneStructurePool) {
  // solve + min_period + latency on one structure: all joint-mode requests
  // land in the same pooled session.
  const model::Configuration config = testing::multi_graph_sweep();

  std::vector<Request> batch;
  batch.push_back(solve_request(config));
  {
    Request request;
    request.options = tight_options();
    api::MinPeriodRequest r{config};
    r.graph = 0;
    r.period_hi = 40.0;
    request.payload = std::move(r);
    batch.push_back(std::move(request));
  }
  {
    Request request;
    request.options = tight_options();
    request.payload = api::LatencyRequest{config};
    batch.push_back(std::move(request));
  }

  Engine engine;
  const std::vector<Response> responses = engine.run_batch(batch);
  ASSERT_EQ(responses.size(), 3u);
  for (const Response& response : responses) {
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.diagnostics.symbolic_factorisations, 1);
  }
  EXPECT_EQ(engine.pooled_sessions(), 1u);
  EXPECT_TRUE(responses[1].diagnostics.session_reused);
  EXPECT_TRUE(responses[2].diagnostics.session_reused);

  // The solve after the min_period bisection still answers for *its*
  // period, not the bisection's last probe.
  expect_same_mapping(
      std::get<api::LatencyPayload>(responses[2].payload).mapping,
      core::compute_budgets_and_buffers(config, tight_mapping_options()),
      "post-bisection solve");
}

TEST(ApiEngine, PoolEvictionAndDisabledPooling) {
  // max_pool_sessions == 1: alternating structures evict each other.
  EngineOptions one;
  one.max_pool_sessions = 1;
  Engine small(one);
  (void)small.run(solve_request(testing::paper_t1()));
  (void)small.run(solve_request(testing::paper_t2()));
  EXPECT_EQ(small.pooled_sessions(), 1u);
  const Response back = small.run(solve_request(testing::paper_t1()));
  EXPECT_FALSE(back.diagnostics.session_reused);

  // max_pool_sessions == 0: pooling disabled entirely.
  EngineOptions off;
  off.max_pool_sessions = 0;
  Engine cold(off);
  const Response first = cold.run(solve_request(testing::paper_t1()));
  const Response second = cold.run(solve_request(testing::paper_t1()));
  EXPECT_EQ(cold.pooled_sessions(), 0u);
  EXPECT_FALSE(first.diagnostics.session_reused);
  EXPECT_FALSE(second.diagnostics.session_reused);
}

TEST(ApiEngine, SweepRequestPoolsWithEqualStructure) {
  // Two sweeps of the same system (different ranges) share one session;
  // batch results equal the free-function sweeps point by point.
  const model::Configuration config = testing::multi_graph_sweep();

  std::vector<Request> batch;
  for (const Index cap_hi : {Index(4), Index(6)}) {
    Request request;
    request.options = tight_options();
    api::SweepRequest r{config};
    r.graph = 0;
    r.cap_lo = 1;
    r.cap_hi = cap_hi;
    request.payload = std::move(r);
    batch.push_back(std::move(request));
  }

  Engine engine;
  const std::vector<Response> responses = engine.run_batch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(engine.pooled_sessions(), 1u);
  EXPECT_TRUE(responses[1].diagnostics.session_reused);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(responses[i].status, ResponseStatus::kOk);
    EXPECT_EQ(responses[i].diagnostics.symbolic_factorisations, 1);
    model::Configuration fresh_config = config;
    const core::TradeoffSweep fresh = core::sweep_max_capacity(
        fresh_config, 0, 1, i == 0 ? 4 : 6, tight_mapping_options());
    const auto& sweep = std::get<api::SweepPayload>(responses[i].payload).sweep;
    ASSERT_EQ(sweep.points.size(), fresh.points.size());
    for (std::size_t k = 0; k < fresh.points.size(); ++k) {
      EXPECT_EQ(sweep.points[k].feasible, fresh.points[k].feasible);
      EXPECT_EQ(sweep.points[k].budgets, fresh.points[k].budgets);
      EXPECT_EQ(sweep.points[k].capacities, fresh.points[k].capacities);
    }
  }
}

TEST(ApiEngine, HeldOutColdLargeRequestSolvesOptimal) {
  // An 84-task, 4-processor joint solve from servebench's cold_large stream
  // (seed 90210, request q2005). A KKT regularisation of 1e-12 of the
  // largest diagonal entry stalled it into numerical_failure with the
  // recovery ladder exhausted.
  std::ifstream in(std::string(BBS_TEST_DATA_DIR) +
                   "/cold_large-90210-q2005.jsonl");
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  Engine engine;
  const Response response = engine.run(io::request_from_json(line));
  ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
  const auto& mapping = std::get<api::SolvePayload>(response.payload).mapping;
  EXPECT_EQ(mapping.status, solver::SolveStatus::kOptimal);
  EXPECT_TRUE(mapping.verified);
  EXPECT_FALSE(mapping.recovered);
}

}  // namespace
}  // namespace bbs
