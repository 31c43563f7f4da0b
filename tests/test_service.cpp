// Service daemon tests: the bounded backpressure queue, the sharded
// dispatcher (structure-affinity routing, work stealing, graceful shutdown
// semantics, per-worker amortisation counters), the JSONL session layer
// (in-order response reassembly under multi-worker execution, control
// messages, per-client quotas) and the socket front end (AF_UNIX + TCP,
// slow-client disconnect policy, socket-path takeover rules).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "bbs/common/assert.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/io/service_io.hpp"
#include "bbs/service/bounded_queue.hpp"
#include "bbs/service/dispatcher.hpp"
#include "bbs/service/endpoint.hpp"
#include "bbs/service/jsonl_stream.hpp"
#include "bbs/service/socket_server.hpp"
#include "bbs/telemetry/histogram.hpp"
#include "bbs/telemetry/service_telemetry.hpp"
#include "bbs/telemetry/trace.hpp"
#include "testing/normalise.hpp"
#include "testing/support.hpp"

namespace bbs {
namespace {

using api::Request;
using api::Response;
using api::ResponseStatus;
using service::BoundedQueue;
using service::Dispatcher;
using service::DispatcherOptions;
using service::JsonlSession;
using service::ServiceStats;

Request solve_request(model::Configuration config, std::string id) {
  Request request;
  request.id = std::move(id);
  request.payload = api::SolveRequest{std::move(config)};
  return request;
}

/// The mixed-structure request stream the multi-worker tests pump: three
/// distinct problem structures (two-graph preset, its video-only variant,
/// the paper's T1), interleaved, with several same-structure repeats whose
/// only differences are wildcarded parameters (required periods).
std::vector<Request> mixed_structure_stream() {
  std::vector<Request> requests;
  int line = 0;
  for (const double scale : {1.0, 1.1, 0.95, 1.2}) {
    model::Configuration preset = testing::multi_graph_sweep();
    preset.mutable_task_graph(0).set_required_period(
        preset.task_graph(0).required_period() * scale);
    requests.push_back(
        solve_request(std::move(preset), "line-" + std::to_string(line++)));

    testing::MultiGraphSweepOptions video_only;
    video_only.include_audio = false;
    model::Configuration video = testing::multi_graph_sweep(video_only);
    video.mutable_task_graph(0).set_required_period(
        video.task_graph(0).required_period() * scale);
    requests.push_back(
        solve_request(std::move(video), "line-" + std::to_string(line++)));

    requests.push_back(solve_request(testing::paper_t1(),
                                     "line-" + std::to_string(line++)));
  }
  return requests;
}

std::string to_jsonl(const std::vector<Request>& requests) {
  std::string stream;
  for (const Request& request : requests) {
    stream += io::write_json_compact(io::request_to_json_value(request));
    stream += '\n';
  }
  return stream;
}

using testing::normalised;
using testing::normalised_line;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(ServiceQueue, FifoWithinCapacity) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_TRUE(queue.push(3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(ServiceQueue, PushBlocksWhileFullAndResumesOnPop) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(3));  // must block until a slot frees up
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load()) << "push did not exert backpressure";
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.size(), 2u);
}

TEST(ServiceQueue, PopBlocksUntilPush) {
  BoundedQueue<int> queue(2);
  std::promise<int> popped;
  std::thread consumer([&] { popped.set_value(queue.pop().value()); });
  std::future<int> value = popped.get_future();
  EXPECT_EQ(value.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  ASSERT_TRUE(queue.push(7));
  EXPECT_EQ(value.get(), 7);
  consumer.join();
}

TEST(ServiceQueue, CloseDrainsBacklogThenSignalsExhaustion) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3)) << "push must fail after close";
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(ServiceQueue, TimedPushReportsTimeoutOnFullQueueAndClosedAfterClose) {
  BoundedQueue<int> queue(1);
  ASSERT_EQ(queue.push_wait_for(1, std::chrono::milliseconds(10)),
            service::PushResult::kPushed);
  // Full queue, nobody popping: the deadline expires and the queue is
  // unchanged — the slow-client policy signal.
  ASSERT_EQ(queue.push_wait_for(2, std::chrono::milliseconds(10)),
            service::PushResult::kTimeout);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  queue.close();
  EXPECT_EQ(queue.push_wait_for(3, std::chrono::milliseconds(10)),
            service::PushResult::kClosed);
}

TEST(ServiceQueue, TryPopAndTimedPopDistinguishEmptyFromClosed) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.try_pop(), std::nullopt);
  EXPECT_EQ(queue.pop_for(std::chrono::milliseconds(10)), std::nullopt);
  EXPECT_FALSE(queue.closed());
  ASSERT_TRUE(queue.push(7));
  EXPECT_EQ(queue.try_pop(), std::optional<int>(7));
  ASSERT_TRUE(queue.push(8));
  queue.close();
  // pop_for still drains the backlog of a closed queue before the
  // closed-and-empty exit condition becomes observable.
  EXPECT_EQ(queue.pop_for(std::chrono::milliseconds(10)), std::optional<int>(8));
  EXPECT_EQ(queue.pop_for(std::chrono::milliseconds(10)), std::nullopt);
  EXPECT_TRUE(queue.closed() && queue.size() == 0);
}

TEST(ServiceQueue, CloseAndTakeHandsBacklogToCaller) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  const std::deque<int> taken = queue.close_and_take();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0], 1);
  EXPECT_EQ(taken[1], 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.push(3));
}

// ---------------------------------------------------------------------------
// Endpoint grammar
// ---------------------------------------------------------------------------

TEST(ServiceEndpoint, ParsesUnixBareAndTcpSpecs) {
  const service::Endpoint u = service::parse_endpoint("unix:/tmp/bbs.sock");
  EXPECT_EQ(u.kind, service::Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/bbs.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/bbs.sock");

  // Bare path: PR 5 back compat.
  const service::Endpoint bare = service::parse_endpoint("/run/bbs.sock");
  EXPECT_EQ(bare.kind, service::Endpoint::Kind::kUnix);
  EXPECT_EQ(bare.path, "/run/bbs.sock");

  const service::Endpoint t = service::parse_endpoint("tcp://127.0.0.1:7421");
  EXPECT_EQ(t.kind, service::Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7421);
  EXPECT_EQ(t.to_string(), "tcp://127.0.0.1:7421");

  const service::Endpoint v6 = service::parse_endpoint("tcp://[::1]:80");
  EXPECT_EQ(v6.kind, service::Endpoint::Kind::kTcp);
  EXPECT_EQ(v6.host, "::1");
  EXPECT_EQ(v6.port, 80);
  EXPECT_EQ(v6.to_string(), "tcp://[::1]:80");

  EXPECT_EQ(service::parse_endpoint("tcp://0.0.0.0:0").port, 0);
}

TEST(ServiceEndpoint, RejectsMalformedSpecs) {
  EXPECT_THROW(service::parse_endpoint(""), ModelError);
  EXPECT_THROW(service::parse_endpoint("unix:"), ModelError);
  EXPECT_THROW(service::parse_endpoint("tcp://:80"), ModelError);
  EXPECT_THROW(service::parse_endpoint("tcp://host"), ModelError);
  EXPECT_THROW(service::parse_endpoint("tcp://host:"), ModelError);
  EXPECT_THROW(service::parse_endpoint("tcp://host:abc"), ModelError);
  EXPECT_THROW(service::parse_endpoint("tcp://host:70000"), ModelError);
  EXPECT_THROW(service::parse_endpoint("tcp://[::1"), ModelError);
  EXPECT_THROW(service::parse_endpoint("tcp://[::1]80"), ModelError);
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

TEST(ServiceDispatcher, RoutingIsStructureAffine) {
  DispatcherOptions options;
  options.workers = 3;
  Dispatcher dispatcher(options);

  // Same structure, different wildcarded parameters: one worker.
  model::Configuration a = testing::multi_graph_sweep();
  model::Configuration b = testing::multi_graph_sweep();
  b.mutable_task_graph(0).set_required_period(
      b.task_graph(0).required_period() * 2.0);
  const Request solve_a = solve_request(a, "a");
  const Request solve_b = solve_request(b, "b");
  EXPECT_EQ(dispatcher.route(solve_a), dispatcher.route(solve_b));
  EXPECT_EQ(dispatcher.route(solve_a), dispatcher.route(solve_a));

  // A sweep over a fully capped graph builds the same program structure as
  // the joint solve, so it must land on the same worker (and session pool).
  Request sweep;
  sweep.payload = api::SweepRequest{a, 0, 1, 4};
  EXPECT_EQ(dispatcher.route(sweep), dispatcher.route(solve_a));
  dispatcher.stop();
}

TEST(ServiceDispatcher, ShutdownDrainsQueuedRequests) {
  DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  Dispatcher dispatcher(options);

  std::atomic<int> completed{0};
  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(dispatcher.submit(
        solve_request(testing::paper_t1(), "r" + std::to_string(i)),
        [&](Response response) {
          EXPECT_EQ(response.status, ResponseStatus::kOk);
          ++completed;
        }));
  }
  // Stop immediately: everything accepted must still execute (drain).
  dispatcher.stop(/*drain=*/true);
  EXPECT_EQ(completed.load(), kRequests);
  EXPECT_FALSE(dispatcher.submit(solve_request(testing::paper_t1(), "late"),
                                 [](Response) { FAIL() << "ran after stop"; }));
}

TEST(ServiceDispatcher, FullQueueExertsBackpressureOnSubmit) {
  DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Dispatcher dispatcher(options);

  // Park the worker inside the first request's completion so the queue
  // stays occupied deterministically.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::atomic<int> completed{0};
  ASSERT_TRUE(dispatcher.submit(
      solve_request(testing::paper_t1(), "blocker"), [&](Response) {
        entered.set_value();
        release_future.wait();
        ++completed;
      }));
  entered.get_future().wait();
  // Fills the queue; returns without blocking.
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "fill"),
                                [&](Response) { ++completed; }));

  std::atomic<bool> third_accepted{false};
  std::thread producer([&] {
    EXPECT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "wait"),
                                  [&](Response) { ++completed; }));
    third_accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_accepted.load())
      << "submit did not block on a full worker queue";

  release.set_value();
  producer.join();
  EXPECT_TRUE(third_accepted.load());
  dispatcher.stop(/*drain=*/true);
  EXPECT_EQ(completed.load(), 3);
}

TEST(ServiceDispatcher, StopWithoutDrainErrorCompletesBacklog) {
  DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  Dispatcher dispatcher(options);

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::atomic<int> executed{0};
  std::atomic<int> shutdown_errors{0};
  const auto count = [&](const Response& response) {
    if (response.status == ResponseStatus::kError &&
        response.error == "service is shutting down") {
      ++shutdown_errors;
    } else {
      ++executed;
    }
  };
  ASSERT_TRUE(dispatcher.submit(
      solve_request(testing::paper_t1(), "blocker"), [&](Response response) {
        entered.set_value();
        release_future.wait();
        count(response);
      }));
  entered.get_future().wait();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dispatcher.submit(
        solve_request(testing::paper_t1(), "backlog" + std::to_string(i)),
        count));
  }

  std::thread stopper([&] { dispatcher.stop(/*drain=*/false); });
  // Give stop() time to close-and-take the backlog before the worker
  // resumes; the dropped requests must then be error-completed, never
  // executed — but every accepted submit still hears back.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();
  stopper.join();
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(shutdown_errors.load(), 5);
}

TEST(ServiceDispatcher, PerWorkerStatsReportStructureAmortisation) {
  DispatcherOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  // This test asserts per-worker counters as exact functions of route();
  // an idle-worker steal would legitimately shift them.
  options.work_stealing = false;
  Dispatcher dispatcher(options);

  const std::vector<Request> stream = mixed_structure_stream();
  // Expected per-worker load, derived from the (stable) routing itself.
  std::map<std::size_t, std::uint64_t> expected_requests;
  std::map<std::size_t, std::set<std::string>> expected_structures;
  for (const Request& request : stream) {
    const std::size_t worker = dispatcher.route(request);
    ++expected_requests[worker];
    expected_structures[worker].insert(api::request_structure_key(request));
  }

  std::atomic<int> completed{0};
  for (const Request& request : stream) {
    ASSERT_TRUE(dispatcher.submit(request, [&](Response response) {
      EXPECT_EQ(response.status, ResponseStatus::kOk);
      ++completed;
    }));
  }
  dispatcher.stop(/*drain=*/true);
  ASSERT_EQ(completed.load(), static_cast<int>(stream.size()));

  const ServiceStats stats = dispatcher.stats();
  ASSERT_EQ(stats.workers.size(), 2u);
  EXPECT_EQ(stats.requests, stream.size());
  EXPECT_EQ(stats.queue_depth, 0u);
  for (const service::WorkerStats& ws : stats.workers) {
    EXPECT_EQ(ws.engine.requests, expected_requests[ws.worker]);
    // The amortisation invariant end to end: one symbolic factorisation
    // per distinct structure routed to this worker, no matter how many
    // requests repeated it; every repeat is a warm pool hit.
    const auto structures =
        static_cast<std::uint64_t>(expected_structures[ws.worker].size());
    EXPECT_EQ(ws.engine.symbolic_factorisations, structures);
    EXPECT_EQ(ws.engine.pool_misses, structures);
    EXPECT_EQ(ws.engine.pool_hits, ws.engine.requests - structures);
  }
}

TEST(ServiceDispatcher, IdleWorkerStealsFromDeepPeerQueue) {
  DispatcherOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  options.steal_poll_interval = std::chrono::milliseconds(200);
  Dispatcher dispatcher(options);

  // Let both workers park inside their idle pop_for wait before the blocker
  // arrives. The push wakes only the affinity worker (its own queue), and
  // the peer's next steal rescan is a full poll interval away — so the
  // blocker itself deterministically cannot be stolen, only the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Park the structure's affinity worker inside the first request's
  // completion so its queue backs up deterministically; the idle peer must
  // steal and execute the backlog even though every request routes to the
  // parked worker.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "blocker"),
                                [&](Response) {
                                  entered.set_value();
                                  release_future.wait();
                                }));
  entered.get_future().wait();

  const int kBacklog = 5;
  std::atomic<int> completed{0};
  std::promise<void> backlog_done;
  for (int i = 0; i < kBacklog; ++i) {
    ASSERT_TRUE(dispatcher.submit(
        solve_request(testing::paper_t1(), "steal" + std::to_string(i)),
        [&](Response response) {
          EXPECT_EQ(response.status, ResponseStatus::kOk);
          if (completed.fetch_add(1) + 1 == kBacklog) {
            backlog_done.set_value();
          }
        }));
  }
  // The affinity worker is still parked, so only steals can complete these.
  backlog_done.get_future().wait();
  EXPECT_EQ(completed.load(), kBacklog);
  release.set_value();
  dispatcher.stop(/*drain=*/true);

  const ServiceStats stats = dispatcher.stats();
  EXPECT_EQ(stats.stolen, static_cast<std::uint64_t>(kBacklog));
  std::uint64_t per_worker_stolen = 0;
  for (const service::WorkerStats& ws : stats.workers) {
    per_worker_stolen += ws.stolen;
  }
  EXPECT_EQ(per_worker_stolen, stats.stolen);
}

// ---------------------------------------------------------------------------
// JSONL session layer
// ---------------------------------------------------------------------------

TEST(ServiceJsonl, MultiWorkerStreamStaysAlignedAndDeterministic) {
  const std::vector<Request> stream = mixed_structure_stream();
  const std::string input = to_jsonl(stream);

  // Reference: the same per-structure request order through one sequential
  // engine (what solve_cli --batch runs). Responses of the sharded daemon
  // must be identical modulo wall time.
  api::Engine reference;
  std::vector<std::string> expected;
  for (const Request& request : stream) {
    expected.push_back(normalised(reference.run(request)));
  }

  for (int run = 0; run < 2; ++run) {
    DispatcherOptions options;
    options.workers = 3;
    options.queue_capacity = 4;
    // Byte-identity with the sequential reference relies on pure affinity
    // routing: a steal would run a request on a cold peer engine and change
    // its warm-start diagnostics (the bbs_serve --no-steal mode).
    options.work_stealing = false;
    Dispatcher dispatcher(options);
    std::istringstream in(input);
    std::ostringstream out;
    const service::StreamSummary summary =
        service::serve_jsonl(dispatcher, in, out);
    dispatcher.stop();

    EXPECT_EQ(summary.lines, stream.size());
    EXPECT_TRUE(summary.all_ok());
    const std::vector<std::string> lines = split_lines(out.str());
    ASSERT_EQ(lines.size(), stream.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      // Per-line alignment: response i answers request i (id echo).
      const Response response = io::response_from_json(lines[i]);
      EXPECT_EQ(response.id, stream[i].id) << "line " << i;
      EXPECT_EQ(normalised_line(lines[i]), expected[i]) << "line " << i;
    }
  }
}

TEST(ServiceJsonl, MalformedAndBlankLinesKeepAlignment) {
  DispatcherOptions options;
  options.workers = 2;
  Dispatcher dispatcher(options);

  std::string input;
  input += to_jsonl({solve_request(testing::paper_t1(), "first")});
  input += "\n";            // blank: skipped, no response line
  input += "{not json}\n";  // malformed: error response at this position
  input += "   \t\n";       // whitespace only: skipped
  input += to_jsonl({solve_request(testing::paper_t1(), "last")});

  std::istringstream in(input);
  std::ostringstream out;
  const service::StreamSummary summary =
      service::serve_jsonl(dispatcher, in, out);
  dispatcher.stop();

  EXPECT_EQ(summary.lines, 3u);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_FALSE(summary.all_ok());
  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(io::response_from_json(lines[0]).id, "first");
  const Response error = io::response_from_json(lines[1]);
  EXPECT_EQ(error.status, ResponseStatus::kError);
  EXPECT_EQ(error.kind, "unknown");
  EXPECT_FALSE(error.error.empty());
  EXPECT_EQ(io::response_from_json(lines[2]).id, "last");
}

TEST(ServiceJsonl, StatsControlLineReportsAmortisation) {
  DispatcherOptions options;
  options.workers = 2;
  options.work_stealing = false;  // exact per-worker counters (see above)
  Dispatcher dispatcher(options);

  const std::vector<Request> stream = mixed_structure_stream();
  std::map<std::size_t, std::set<std::string>> expected_structures;
  for (const Request& request : stream) {
    expected_structures[dispatcher.route(request)].insert(
        api::request_structure_key(request));
  }

  std::string input = to_jsonl(stream);
  input += "{\"kind\":\"stats\",\"id\":\"snap\"}\n";
  std::istringstream in(input);
  std::ostringstream out;
  const service::StreamSummary summary =
      service::serve_jsonl(dispatcher, in, out);
  dispatcher.stop();

  EXPECT_EQ(summary.lines, stream.size() + 1);
  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), stream.size() + 1);

  // The stats line resolves at the emission frontier, so it has seen every
  // request before it in the stream.
  const io::JsonValue doc = io::parse_json(lines.back());
  const io::JsonObject& root = doc.as_object();
  EXPECT_EQ(root.at("kind").as_string(), "stats");
  EXPECT_EQ(root.at("id").as_string(), "snap");
  EXPECT_EQ(root.at("status").as_string(), "ok");
  const io::JsonObject& result = root.at("result").as_object();
  EXPECT_EQ(result.at("requests").as_number(),
            static_cast<double>(stream.size()));
  EXPECT_EQ(result.at("queue_depth").as_number(), 0.0);
  // Transport/steal counters are present (zero here: no socket front end,
  // stealing disabled, no quotas configured).
  EXPECT_EQ(result.at("stolen").as_number(), 0.0);
  EXPECT_EQ(result.at("accept_failures").as_number(), 0.0);
  EXPECT_EQ(result.at("slow_client_disconnects").as_number(), 0.0);
  EXPECT_EQ(result.at("quota_rejections").as_number(), 0.0);
  EXPECT_TRUE(result.at("connection_outbox_depths").as_array().empty());
  const io::JsonArray& workers = result.at("workers").as_array();
  ASSERT_EQ(workers.size(), 2u);
  for (const io::JsonValue& worker : workers) {
    const io::JsonObject& w = worker.as_object();
    const auto index = static_cast<std::size_t>(w.at("worker").as_number());
    const io::JsonObject& engine = w.at("engine").as_object();
    // symbolic_factorisations == 1 per structure-affine repeat group on
    // every worker: the acceptance invariant of the sharded daemon.
    EXPECT_EQ(engine.at("symbolic_factorisations").as_number(),
              static_cast<double>(expected_structures[index].size()));
  }
}

TEST(ServiceJsonl, FastAbortStillAnswersEveryConsumedLine) {
  // stop(drain=false) drops queued work, but a session counting
  // completions must not deadlock in finish(): the dropped lines come
  // back as shutdown errors.
  DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  Dispatcher dispatcher(options);

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "blocker"),
                                [&](Response) {
                                  entered.set_value();
                                  release_future.wait();
                                }));
  entered.get_future().wait();

  std::vector<std::string> emitted;
  JsonlSession session(dispatcher,
                       [&](const std::string& line) { emitted.push_back(line); });
  for (int i = 0; i < 3; ++i) {
    session.submit_line(io::write_json_compact(io::request_to_json_value(
        solve_request(testing::paper_t1(), "q" + std::to_string(i)))));
  }
  std::thread stopper([&] { dispatcher.stop(/*drain=*/false); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();
  stopper.join();

  const service::StreamSummary summary = session.finish();
  EXPECT_EQ(summary.lines, 3u);
  EXPECT_EQ(summary.errors, 3u);
  ASSERT_EQ(emitted.size(), 3u);
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    const Response response = io::response_from_json(emitted[i]);
    EXPECT_EQ(response.id, "q" + std::to_string(i));
    EXPECT_EQ(response.error, "service is shutting down");
  }
}

TEST(ServiceJsonl, SubmitAfterStopAnswersShuttingDown) {
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  dispatcher.stop();

  std::vector<std::string> emitted;
  {
    JsonlSession session(dispatcher,
                         [&](const std::string& line) { emitted.push_back(line); });
    session.submit_line(io::write_json_compact(io::request_to_json_value(
        solve_request(testing::paper_t1(), "late"))));
    const service::StreamSummary summary = session.finish();
    EXPECT_EQ(summary.errors, 1u);
  }
  ASSERT_EQ(emitted.size(), 1u);
  const Response response = io::response_from_json(emitted[0]);
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.id, "late");
  EXPECT_EQ(response.kind, "solve");
  EXPECT_EQ(response.error, "service is shutting down");
}

TEST(ServiceJsonl, MaxInFlightQuotaRejectsWithStructuredError) {
  DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  Dispatcher dispatcher(options);

  // Park the worker so the first session line stays in flight.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "blocker"),
                                [&](Response) {
                                  entered.set_value();
                                  release_future.wait();
                                }));
  entered.get_future().wait();

  std::atomic<int> rejections{0};
  service::SessionOptions session_options;
  session_options.max_in_flight = 1;
  session_options.on_quota_rejection = [&] { ++rejections; };
  std::vector<std::string> emitted;
  service::JsonlSession session(
      dispatcher, [&](const std::string& line) { emitted.push_back(line); },
      std::move(session_options));
  for (int i = 0; i < 3; ++i) {
    session.submit_line(io::write_json_compact(io::request_to_json_value(
        solve_request(testing::paper_t1(), "q" + std::to_string(i)))));
  }
  release.set_value();
  const service::StreamSummary summary = session.finish();
  dispatcher.stop(/*drain=*/true);

  // Line 0 was dispatched (1 in flight); lines 1 and 2 were over quota and
  // answered immediately with structured errors — never queued.
  EXPECT_EQ(summary.lines, 3u);
  EXPECT_EQ(summary.ok, 1u);
  EXPECT_EQ(summary.errors, 2u);
  EXPECT_EQ(summary.quota_rejections, 2u);
  EXPECT_EQ(rejections.load(), 2);
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(io::response_from_json(emitted[0]).status, ResponseStatus::kOk);
  for (std::size_t i = 1; i < 3; ++i) {
    const Response response = io::response_from_json(emitted[i]);
    EXPECT_EQ(response.status, ResponseStatus::kError);
    EXPECT_EQ(response.id, "q" + std::to_string(i));
    EXPECT_EQ(response.kind, "solve");
    EXPECT_NE(response.error.find("over quota"), std::string::npos)
        << response.error;
  }
}

TEST(ServiceJsonl, RateLimitQuotaRejectsAndStatsHookReportsIt) {
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);

  std::atomic<std::uint64_t> rejections{0};
  service::SessionOptions session_options;
  // A practically-zero refill rate: the bucket holds exactly one initial
  // token (burst = max(1, rps)), so of three back-to-back lines only the
  // first is admitted, deterministically.
  session_options.requests_per_second = 1e-6;
  session_options.on_quota_rejection = [&] { ++rejections; };
  session_options.stats_hook = [&](ServiceStats& stats) {
    stats.quota_rejections = rejections.load();
  };
  std::vector<std::string> emitted;
  service::JsonlSession session(
      dispatcher, [&](const std::string& line) { emitted.push_back(line); },
      std::move(session_options));
  for (int i = 0; i < 3; ++i) {
    session.submit_line(io::write_json_compact(io::request_to_json_value(
        solve_request(testing::paper_t1(), "r" + std::to_string(i)))));
  }
  // Control lines are never charged against the bucket, and the stats hook
  // folds the transport-owned rejection counter into the snapshot.
  session.submit_line("{\"kind\":\"stats\",\"id\":\"after\"}");
  const service::StreamSummary summary = session.finish();
  dispatcher.stop(/*drain=*/true);

  EXPECT_EQ(summary.lines, 4u);
  EXPECT_EQ(summary.quota_rejections, 2u);
  EXPECT_EQ(rejections.load(), 2u);
  ASSERT_EQ(emitted.size(), 4u);
  for (std::size_t i = 1; i < 3; ++i) {
    const Response response = io::response_from_json(emitted[i]);
    EXPECT_EQ(response.status, ResponseStatus::kError);
    EXPECT_NE(response.error.find("rate limit"), std::string::npos);
  }
  const io::JsonValue stats_doc = io::parse_json(emitted[3]);
  const io::JsonObject& stats_root = stats_doc.as_object();
  EXPECT_EQ(stats_root.at("status").as_string(), "ok");
  EXPECT_EQ(
      stats_root.at("result").as_object().at("quota_rejections").as_number(),
      2.0);
}

// ---------------------------------------------------------------------------
// Request tracing: the {"kind":"trace"} control line and span invariants
// ---------------------------------------------------------------------------

Request traced_solve_request(model::Configuration config, std::string id,
                             bool ipm = false) {
  Request request = solve_request(std::move(config), std::move(id));
  request.options.trace = true;
  request.options.trace_ipm = ipm;
  return request;
}

/// Returns the events named `name` from a serialised trace document.
std::vector<io::JsonObject> trace_events_named(const io::JsonValue& trace,
                                               const std::string& name) {
  std::vector<io::JsonObject> found;
  for (const io::JsonValue& event :
       trace.as_object().at("events").as_array()) {
    if (event.as_object().at("name").as_string() == name) {
      found.push_back(event.as_object());
    }
  }
  return found;
}

TEST(ServiceTrace, ControlLineServesSpansConsistentWithWallTime) {
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  telemetry::TraceRing ring(16);
  service::SessionOptions session_options;
  session_options.trace_ring = &ring;

  std::vector<std::string> emitted;
  service::JsonlSession session(
      dispatcher, [&](const std::string& line) { emitted.push_back(line); },
      std::move(session_options));
  session.submit_line(io::write_json_compact(io::request_to_json_value(
      traced_solve_request(testing::paper_t1(), "traced"))));
  session.submit_line("{\"kind\":\"trace\",\"id\":\"probe\"}");
  session.submit_line(
      "{\"kind\":\"trace\",\"id\":\"probe2\",\"min_duration_ms\":1e9}");
  const service::StreamSummary summary = session.finish();
  dispatcher.stop();
  EXPECT_EQ(summary.errors, 0u);
  ASSERT_EQ(emitted.size(), 3u);

  // The solve response echoes the trace id in its diagnostics.
  const Response solved = io::response_from_json(emitted[0]);
  ASSERT_EQ(solved.status, ResponseStatus::kOk) << solved.error;
  const std::string trace_id = solved.diagnostics.trace_id;
  ASSERT_EQ(trace_id.size(), 16u);

  // The probe serves that trace from the ring, newest first.
  const io::JsonValue probe = io::parse_json(emitted[1]);
  EXPECT_EQ(probe.as_object().at("kind").as_string(), "trace");
  EXPECT_EQ(probe.as_object().at("id").as_string(), "probe");
  const io::JsonObject& result = probe.as_object().at("result").as_object();
  EXPECT_EQ(result.at("recorded").as_number(), 1.0);
  EXPECT_EQ(result.at("capacity").as_number(), 16.0);
  const io::JsonArray& traces = result.at("traces").as_array();
  ASSERT_EQ(traces.size(), 1u);
  const io::JsonObject& trace = traces[0].as_object();
  EXPECT_EQ(trace.at("id").as_string(), trace_id);
  EXPECT_EQ(trace.at("kind").as_string(), "solve");
  EXPECT_EQ(trace.at("status").as_string(), "ok");

  // Every pipeline hop is present exactly once, in causal order.
  const double wall_ms = trace.at("wall_ms").as_number();
  double span_sum = 0.0;
  double previous_end = 0.0;
  for (const char* name : {"queue", "solve", "write"}) {
    const std::vector<io::JsonObject> spans =
        trace_events_named(traces[0], name);
    ASSERT_EQ(spans.size(), 1u) << name;
    const double t = spans[0].at("t_ms").as_number();
    const double dur = spans[0].at("dur_ms").as_number();
    EXPECT_GE(dur, 0.0) << name;
    // Spans do not overlap: each starts at or after the previous one ended
    // (a small slack absorbs cross-thread clock reads).
    EXPECT_GE(t, previous_end - 0.5) << name;
    previous_end = t + dur;
    span_sum += dur;
  }
  EXPECT_EQ(trace_events_named(traces[0], "accept").size(), 1u);
  EXPECT_EQ(trace_events_named(traces[0], "enqueue").size(), 1u);
  // The stages partition the wall time: their sum never exceeds it, and
  // the last span ends at or before close.
  EXPECT_LE(span_sum, wall_ms * 1.05 + 0.5);
  EXPECT_LE(previous_end, wall_ms + 0.5);
  // Untraced by default: no per-IPM-iteration events without trace_ipm.
  EXPECT_TRUE(trace_events_named(traces[0], "ipm_iteration").empty());

  // An unsatisfiable duration floor matches nothing.
  const io::JsonValue empty_probe = io::parse_json(emitted[2]);
  EXPECT_TRUE(empty_probe.as_object()
                  .at("result")
                  .as_object()
                  .at("traces")
                  .as_array()
                  .empty());
}

TEST(ServiceTrace, IpmIntrospectionIsPerRequestOptIn) {
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  telemetry::TraceRing ring(16);
  service::SessionOptions session_options;
  session_options.trace_ring = &ring;

  std::vector<std::string> emitted;
  service::JsonlSession session(
      dispatcher, [&](const std::string& line) { emitted.push_back(line); },
      std::move(session_options));
  session.submit_line(io::write_json_compact(io::request_to_json_value(
      traced_solve_request(testing::paper_t1(), "deep", /*ipm=*/true))));
  session.submit_line("{\"kind\":\"trace\"}");
  session.finish();
  dispatcher.stop();
  ASSERT_EQ(emitted.size(), 2u);

  const Response solved = io::response_from_json(emitted[0]);
  ASSERT_EQ(solved.status, ResponseStatus::kOk) << solved.error;
  const io::JsonValue probe = io::parse_json(emitted[1]);
  const io::JsonArray& traces =
      probe.as_object().at("result").as_object().at("traces").as_array();
  ASSERT_EQ(traces.size(), 1u);
  // One event per IPM loop pass, including the pass that observes
  // convergence — one more than the iteration count the solve reports.
  const std::vector<io::JsonObject> iterations =
      trace_events_named(traces[0], "ipm_iteration");
  ASSERT_GE(iterations.size(), 3u);
  EXPECT_EQ(iterations.size(),
            static_cast<std::size_t>(solved.diagnostics.ipm_iterations) + 1);
  for (const io::JsonObject& iteration : iterations) {
    EXPECT_TRUE(iteration.contains("mu"));
    EXPECT_TRUE(iteration.contains("step"));
  }
}

TEST(ServiceTrace, ShedRequestsCloseWithATerminalEvent) {
  DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  Dispatcher dispatcher(options);
  telemetry::TraceRing ring(16);

  // Park the worker, queue traced requests behind it, then abort without
  // draining: the dropped tasks must still close their traces with a
  // terminal "shed" event.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "blocker"),
                                [&](Response) {
                                  entered.set_value();
                                  release_future.wait();
                                }));
  entered.get_future().wait();

  service::SessionOptions session_options;
  session_options.trace_ring = &ring;
  std::vector<std::string> emitted;
  service::JsonlSession session(
      dispatcher, [&](const std::string& line) { emitted.push_back(line); },
      std::move(session_options));
  for (int i = 0; i < 2; ++i) {
    session.submit_line(io::write_json_compact(io::request_to_json_value(
        traced_solve_request(testing::paper_t1(), "q" + std::to_string(i)))));
  }
  std::thread stopper([&] { dispatcher.stop(/*drain=*/false); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();
  stopper.join();
  const service::StreamSummary summary = session.finish();
  EXPECT_EQ(summary.errors, 2u);

  telemetry::TraceFilter errors;
  errors.errors_only = true;
  const auto shed = ring.collect(errors);
  ASSERT_EQ(shed.size(), 2u);
  for (const auto& trace : shed) {
    EXPECT_TRUE(trace->closed());
    EXPECT_EQ(trace->status(), "error");
    const io::JsonValue doc = trace->to_json_value();
    const std::vector<io::JsonObject> events =
        trace_events_named(doc, "shed");
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].at("detail").as_string(), "shutdown");
    // A shed request never ran: no solve span.
    EXPECT_TRUE(trace_events_named(doc, "solve").empty());
  }
}

TEST(ServiceTrace, QuotaRejectedRequestsCloseWithATerminalEvent) {
  DispatcherOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  Dispatcher dispatcher(options);
  telemetry::TraceRing ring(16);

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ASSERT_TRUE(dispatcher.submit(solve_request(testing::paper_t1(), "blocker"),
                                [&](Response) {
                                  entered.set_value();
                                  release_future.wait();
                                }));
  entered.get_future().wait();

  service::SessionOptions session_options;
  session_options.trace_ring = &ring;
  session_options.max_in_flight = 1;
  std::vector<std::string> emitted;
  service::JsonlSession session(
      dispatcher, [&](const std::string& line) { emitted.push_back(line); },
      std::move(session_options));
  session.submit_line(io::write_json_compact(io::request_to_json_value(
      traced_solve_request(testing::paper_t1(), "admitted"))));
  session.submit_line(io::write_json_compact(io::request_to_json_value(
      traced_solve_request(testing::paper_t1(), "rejected"))));
  release.set_value();
  session.finish();
  dispatcher.stop(/*drain=*/true);

  telemetry::TraceFilter errors;
  errors.errors_only = true;
  const auto rejected = ring.collect(errors);
  ASSERT_EQ(rejected.size(), 1u);
  const io::JsonValue doc = rejected[0]->to_json_value();
  EXPECT_EQ(trace_events_named(doc, "quota_rejected").size(), 1u);
  EXPECT_EQ(doc.as_object().at("error_code").as_string(), "over_quota");
}

TEST(ServiceTrace, ControlLineWithoutARingIsAStructuredError) {
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  std::vector<std::string> emitted;
  service::JsonlSession session(
      dispatcher, [&](const std::string& line) { emitted.push_back(line); });
  session.submit_line("{\"kind\":\"trace\"}");
  const service::StreamSummary summary = session.finish();
  dispatcher.stop();
  EXPECT_EQ(summary.errors, 1u);
  ASSERT_EQ(emitted.size(), 1u);
  const Response response = io::response_from_json(emitted[0]);
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_NE(response.error.find("trace is not supported"), std::string::npos)
      << response.error;
}

TEST(ServiceTrace, FilterParsingIsStrict) {
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  telemetry::TraceRing ring(16);
  service::SessionOptions session_options;
  session_options.trace_ring = &ring;
  std::vector<std::string> emitted;
  service::JsonlSession session(
      dispatcher, [&](const std::string& line) { emitted.push_back(line); },
      std::move(session_options));
  session.submit_line("{\"kind\":\"trace\",\"bogus_filter\":1}");
  session.submit_line("{\"kind\":\"trace\",\"min_duration_ms\":-1}");
  session.submit_line("{\"kind\":\"trace\",\"trace_id\":42}");
  const service::StreamSummary summary = session.finish();
  dispatcher.stop();
  EXPECT_EQ(summary.errors, 3u);
  for (const std::string& line : emitted) {
    EXPECT_EQ(io::response_from_json(line).status, ResponseStatus::kError)
        << line;
  }
}

// ---------------------------------------------------------------------------
// Prometheus exposition conformance (native histograms)
// ---------------------------------------------------------------------------

/// Parses `name{labels} value` exposition lines of one metric name into
/// (labels, value) pairs, asserting every value is a full-consumption
/// strtod parse (no locale-dependent separators survive serialisation).
std::vector<std::pair<std::string, double>> metric_samples(
    const std::string& text, const std::string& name) {
  std::vector<std::pair<std::string, double>> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0) continue;
    const char after = line[name.size()];
    if (after != '{' && after != ' ') continue;  // a longer metric name
    const std::size_t value_at = line.rfind(' ');
    std::string labels;
    if (after == '{') {
      const std::size_t close = line.find('}');
      labels = line.substr(name.size() + 1, close - name.size() - 1);
    }
    const std::string value_text = line.substr(value_at + 1);
    // Full-consumption strtod: a locale-dependent decimal comma (or any
    // other stray character) in the value would stop the parse early.
    EXPECT_EQ(value_text.find(','), std::string::npos) << line;
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    EXPECT_EQ(end, value_text.c_str() + value_text.size()) << line;
    samples.emplace_back(std::move(labels), value);
  }
  return samples;
}

TEST(ServiceMetrics, NativeHistogramsAreCumulativeAndComplete) {
  telemetry::ServiceTelemetry telemetry;
  telemetry::LatencyHistogram& histogram = telemetry.histogram(
      telemetry::RequestKind::kSolve, telemetry::Stage::kSolve);
  // Samples spanning underflow, several octaves, and overflow.
  const std::vector<double> samples = {1e-5, 0.004, 0.3,  0.9, 1.4,
                                       7.0,  80.0,  900.0, 1e9};
  for (const double ms : samples) histogram.record(ms);

  const std::string text =
      service::metrics_exposition(ServiceStats{}, &telemetry, nullptr);
  EXPECT_NE(text.find("# TYPE bbs_request_latency_ms histogram"),
            std::string::npos);

  const auto buckets = metric_samples(text, "bbs_request_latency_ms_bucket");
  const auto counts = metric_samples(text, "bbs_request_latency_ms_count");
  const auto sums = metric_samples(text, "bbs_request_latency_ms_sum");
  ASSERT_EQ(counts.size(), 1u);  // only the one recorded (kind, stage) pair
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_NE(counts[0].first.find("kind=\"solve\""), std::string::npos);
  EXPECT_NE(counts[0].first.find("stage=\"solve\""), std::string::npos);
  EXPECT_EQ(counts[0].second, static_cast<double>(samples.size()));
  EXPECT_NEAR(sums[0].second,
              std::accumulate(samples.begin(), samples.end(), 0.0),
              samples.size() * 1e-2);

  // Cumulative and monotone in le, with strictly increasing edges, ending
  // at le="+Inf" == _count.
  ASSERT_GE(buckets.size(), 3u);
  double previous_le = -1.0;
  double previous_count = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::string& labels = buckets[i].first;
    const std::size_t le_at = labels.find("le=\"");
    ASSERT_NE(le_at, std::string::npos) << labels;
    const std::string le_text =
        labels.substr(le_at + 4, labels.find('"', le_at + 4) - le_at - 4);
    const bool is_inf = le_text == "+Inf";
    EXPECT_EQ(is_inf, i + 1 == buckets.size()) << labels;
    if (!is_inf) {
      char* end = nullptr;
      const double le = std::strtod(le_text.c_str(), &end);
      EXPECT_EQ(end, le_text.c_str() + le_text.size()) << le_text;
      EXPECT_GT(le, previous_le) << labels;
      previous_le = le;
    }
    EXPECT_GE(buckets[i].second, previous_count) << labels;
    previous_count = buckets[i].second;
  }
  EXPECT_EQ(buckets.back().second, counts[0].second);

  // The recorded maximum lives in its own gauge family (the _max suffix
  // inside the histogram family is reserved by the exposition format).
  const auto max_samples =
      metric_samples(text, "bbs_request_latency_max_ms");
  ASSERT_EQ(max_samples.size(), 1u);
  EXPECT_NEAR(max_samples[0].second, 1e9, 1.0);
}

TEST(ServiceMetrics, EmptyHistogramsAreOmittedFromTheExposition) {
  telemetry::ServiceTelemetry telemetry;
  const std::string text =
      service::metrics_exposition(ServiceStats{}, &telemetry, nullptr);
  // The family header is present (the scrape schema is stable) but no
  // bucket series is emitted for never-recorded (kind, stage) pairs.
  EXPECT_NE(text.find("# TYPE bbs_request_latency_ms histogram"),
            std::string::npos);
  EXPECT_TRUE(metric_samples(text, "bbs_request_latency_ms_bucket").empty());
}

TEST(ServiceMetrics, EveryStatsCounterHasAnEqualMetricsSample) {
  // Distinct non-zero values, so a sample wired to the wrong field shows.
  ServiceStats stats;
  std::uint64_t next = 1;
  for (std::uint64_t* field :
       {&stats.requests, &stats.ok, &stats.infeasible, &stats.errors,
        &stats.warm_hits, &stats.symbolic_factorisations,
        &stats.recovered_solves, &stats.prewarmed_sessions, &stats.stolen,
        &stats.deadline_shed, &stats.timed_out_mid_solve, &stats.cancelled,
        &stats.connections_accepted, &stats.accept_failures,
        &stats.slow_client_disconnects, &stats.quota_rejections,
        &stats.overload_rejections}) {
    *field = 100 + next++;
  }
  stats.queue_depth = 100 + next++;

  const std::string text = service::metrics_exposition(stats, nullptr, nullptr);
  const io::JsonValue doc = service::service_stats_to_json_value(stats);
  // Families whose names do not follow bbs_<stats key>_total.
  const std::map<std::string, std::string> renamed = {
      {"ok", "bbs_requests_ok_total"},
      {"infeasible", "bbs_requests_infeasible_total"},
      {"errors", "bbs_requests_errors_total"},
      {"queue_depth", "bbs_queue_depth"}};
  int checked = 0;
  for (const auto& [key, value] : doc.as_object().entries()) {
    if (!value.is_number()) continue;  // per-worker and outbox arrays
    const auto it = renamed.find(key);
    const std::string name =
        it != renamed.end() ? it->second : "bbs_" + key + "_total";
    const auto samples = metric_samples(text, name);
    ASSERT_EQ(samples.size(), 1u) << key << " has no sample " << name;
    EXPECT_EQ(samples[0].second, value.as_number()) << name;
    ++checked;
  }
  EXPECT_EQ(checked, 18);
}

// ---------------------------------------------------------------------------
// Socket front end (AF_UNIX + TCP)
// ---------------------------------------------------------------------------

std::string unique_socket_path() {
  return ::testing::TempDir() + "bbs_service_test_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(ServiceSocket, RoundTripAndGracefulStop) {
  DispatcherOptions options;
  options.workers = 2;
  // Affinity-only: byte-identity with the sequential reference engine.
  options.work_stealing = false;
  Dispatcher dispatcher(options);
  const std::string path = unique_socket_path();
  service::SocketServer server(dispatcher, path);

  const std::vector<Request> stream = mixed_structure_stream();
  api::Engine reference;
  std::vector<std::string> expected;
  for (const Request& request : stream) {
    expected.push_back(normalised(reference.run(request)));
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0)
      << std::strerror(errno);

  const std::string input = to_jsonl(stream);
  ASSERT_EQ(::send(fd, input.data(), input.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(input.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  std::string output;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    output.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::vector<std::string> lines = split_lines(output);
  ASSERT_EQ(lines.size(), stream.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(normalised_line(lines[i]), expected[i]) << "line " << i;
  }

  EXPECT_EQ(server.connections_accepted(), 1u);
  server.stop();
  dispatcher.stop();
  // stop() unlinks its socket path.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until EOF (or a read error, including SO_RCVTIMEO expiry).
std::string read_to_eof(int fd) {
  std::string output;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    output.append(buf, static_cast<std::size_t>(n));
  }
  return output;
}

std::string jsonl_line(const Request& request) {
  return io::write_json_compact(io::request_to_json_value(request)) + "\n";
}

// The TCP twin of RoundTripAndGracefulStop: same stream, same in-order
// byte-identical responses, over tcp://127.0.0.1 with a kernel-assigned
// ephemeral port resolved back through server.endpoint().
TEST(ServiceSocket, TcpRoundTripAndGracefulStop) {
  DispatcherOptions options;
  options.workers = 2;
  // Affinity-only: byte-identity with the sequential reference engine.
  options.work_stealing = false;
  Dispatcher dispatcher(options);
  service::SocketServer server(dispatcher,
                               service::parse_endpoint("tcp://127.0.0.1:0"));
  ASSERT_NE(server.endpoint().port, 0);

  const std::vector<Request> stream = mixed_structure_stream();
  api::Engine reference;
  std::vector<std::string> expected;
  for (const Request& request : stream) {
    expected.push_back(normalised(reference.run(request)));
  }

  const int fd = connect_tcp_loopback(server.endpoint().port);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  const std::string input = to_jsonl(stream);
  ASSERT_EQ(::send(fd, input.data(), input.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(input.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::string output = read_to_eof(fd);
  ::close(fd);

  const std::vector<std::string> lines = split_lines(output);
  ASSERT_EQ(lines.size(), stream.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(normalised_line(lines[i]), expected[i]) << "line " << i;
  }

  EXPECT_EQ(server.connections_accepted(), 1u);
  server.stop();
  dispatcher.stop();
}

// The regression this PR exists for: a client that floods requests and
// never reads its responses must not stall the shard. The daemon parks the
// slow connection's backlog in its bounded outbox, disconnects it once the
// write deadline passes, and keeps answering everyone else.
TEST(ServiceSocket, SlowClientIsDisconnectedWithoutStallingOthers) {
  DispatcherOptions options;
  options.workers = 1;  // worst case: victim shares its shard with the flood
  options.queue_capacity = 256;
  Dispatcher dispatcher(options);
  service::SocketServerOptions server_options;
  server_options.outbox_capacity = 4;
  server_options.write_deadline = std::chrono::milliseconds(200);
  server_options.sndbuf_bytes = 1;  // kernel clamps to its floor (~4.6 KiB)
  const std::string path = unique_socket_path();
  service::SocketServer server(dispatcher,
                               service::parse_endpoint("unix:" + path),
                               server_options);

  const int slow_fd = connect_unix(path);
  ASSERT_GE(slow_fd, 0) << std::strerror(errno);
  std::string flood;
  for (int i = 0; i < 64; ++i) {
    flood += jsonl_line(
        solve_request(testing::paper_t1(), "slow-" + std::to_string(i)));
  }
  ASSERT_EQ(::send(slow_fd, flood.data(), flood.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(flood.size()));
  // Let the flood queue ahead of the victim on the single shard.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  const std::string line =
      jsonl_line(solve_request(testing::paper_t1(), "victim"));
  ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const timeval victim_timeout{30, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &victim_timeout,
                         sizeof victim_timeout),
            0);
  const auto start = std::chrono::steady_clock::now();
  const std::string output = read_to_eof(fd);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::close(fd);

  const std::vector<std::string> lines = split_lines(output);
  ASSERT_EQ(lines.size(), 1u) << output;
  EXPECT_EQ(io::response_from_json(lines[0]).status, ResponseStatus::kOk);
  EXPECT_LT(elapsed, std::chrono::seconds(8));
  EXPECT_EQ(server.slow_client_disconnects(), 1u);

  // The slow client must observe a prompt EOF, not a torn silent stream
  // (a half-open connection would park this recv until the timeout).
  const timeval drain_timeout{2, 0};
  ASSERT_EQ(::setsockopt(slow_fd, SOL_SOCKET, SO_RCVTIMEO, &drain_timeout,
                         sizeof drain_timeout),
            0);
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(slow_fd, buf, sizeof buf, 0)) > 0) {
  }
  EXPECT_EQ(n, 0) << "expected EOF, got: " << std::strerror(errno);
  ::close(slow_fd);

  server.stop();
  dispatcher.stop();
}

// ---------------------------------------------------------------------------
// Socket-path takeover policy
// ---------------------------------------------------------------------------

TEST(ServiceSocket, RefusesToStealPathWithLiveListener) {
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  const std::string path = unique_socket_path();
  service::SocketServer server(dispatcher, path);
  EXPECT_THROW(
      {
        service::SocketServer usurper(dispatcher, path);
        (void)usurper;
      },
      ModelError);
  // The incumbent keeps serving after the refused takeover.
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  const std::string line =
      jsonl_line(solve_request(testing::paper_t1(), "still-up"));
  ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::vector<std::string> lines = split_lines(read_to_eof(fd));
  ::close(fd);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(io::response_from_json(lines[0]).status, ResponseStatus::kOk);
  server.stop();
  dispatcher.stop();
}

TEST(ServiceSocket, ReclaimsStaleSocketFileFromDeadDaemon) {
  const std::string path = unique_socket_path();
  ::unlink(path.c_str());
  // Fake a crashed daemon: a bound socket file with nobody behind it.
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0)
      << std::strerror(errno);
  ::close(stale);
  ASSERT_EQ(::access(path.c_str(), F_OK), 0);

  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  // The liveness probe gets ECONNREFUSED, classifies the file as stale,
  // and reclaims the path.
  service::SocketServer server(dispatcher, path);
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  const std::string line =
      jsonl_line(solve_request(testing::paper_t1(), "reclaimed"));
  ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::vector<std::string> lines = split_lines(read_to_eof(fd));
  ::close(fd);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(io::response_from_json(lines[0]).status, ResponseStatus::kOk);
  server.stop();
  dispatcher.stop();
}

TEST(ServiceSocket, RefusesToReplaceNonSocketFile) {
  const std::string path = unique_socket_path();
  ::unlink(path.c_str());
  {
    std::ofstream out(path);
    out << "precious data, definitely not a socket\n";
  }
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(options);
  EXPECT_THROW(
      {
        service::SocketServer server(dispatcher, path);
        (void)server;
      },
      ModelError);
  // The bystander file is preserved, not clobbered.
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  ::unlink(path.c_str());
  dispatcher.stop();
}

}  // namespace
}  // namespace bbs
