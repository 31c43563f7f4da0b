// Telemetry tests: the log-bucketed latency histogram (bucket layout,
// merge, percentile error bound, concurrent recording), the bounded
// per-structure statistics table, and the persistent structure cache —
// including the warm-restart invariant (a fresh engine pre-warmed from
// disk serves a known structure with zero symbolic factorisations) and the
// fail-soft negative paths (truncated/corrupt/stale/misnamed files are
// skipped and counted, never fatal).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bbs/api/engine.hpp"
#include "bbs/common/hash.hpp"
#include "bbs/io/json.hpp"
#include "bbs/service/dispatcher.hpp"
#include "bbs/telemetry/histogram.hpp"
#include "bbs/telemetry/service_telemetry.hpp"
#include "bbs/telemetry/structure_cache.hpp"
#include "bbs/telemetry/trace.hpp"
#include "testing/support.hpp"

namespace bbs {
namespace {

using api::Engine;
using api::EngineOptions;
using api::Request;
using api::Response;
using api::ResponseStatus;
using telemetry::CacheEntry;
using telemetry::LatencyHistogram;
using telemetry::RequestKind;
using telemetry::ServiceTelemetry;
using telemetry::Stage;
using telemetry::StructureCache;
using telemetry::StructureObservation;
using telemetry::StructureRow;
using telemetry::Trace;
using telemetry::TraceEvent;
using telemetry::TraceFilter;
using telemetry::TraceLog;
using telemetry::TraceRing;

/// A unique scratch directory removed on scope exit.
struct ScopedTempDir {
  ScopedTempDir() {
    char pattern[] = "/tmp/bbs_telemetry_XXXXXX";
    const char* made = ::mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "";
  }
  ~ScopedTempDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
  std::string path;
};

Request solve_request(model::Configuration config, std::string id = "") {
  Request request;
  request.id = std::move(id);
  request.payload = api::SolveRequest{std::move(config)};
  return request;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// TelemetryHistogram
// ---------------------------------------------------------------------------

TEST(TelemetryHistogram, EmptySnapshotIsAllZero) {
  LatencyHistogram histogram;
  const LatencyHistogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum_ms, 0.0);
  EXPECT_EQ(snap.max_ms, 0.0);
  EXPECT_EQ(snap.percentile(0.5), 0.0);
  EXPECT_EQ(snap.percentile(0.99), 0.0);
  EXPECT_EQ(snap.mean_ms(), 0.0);
}

TEST(TelemetryHistogram, SingleSampleReportsItselfExactly) {
  // With one sample every quantile lands in its bucket, and the estimate
  // min(bucket upper edge, recorded max) collapses to the exact value.
  LatencyHistogram histogram;
  histogram.record(5.0);
  const LatencyHistogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_NEAR(snap.max_ms, 5.0, 1e-9);
  EXPECT_NEAR(snap.percentile(0.0), 5.0, 1e-9);
  EXPECT_NEAR(snap.percentile(0.5), 5.0, 1e-9);
  EXPECT_NEAR(snap.percentile(1.0), 5.0, 1e-9);
  EXPECT_NEAR(snap.mean_ms(), 5.0, 1e-9);
}

TEST(TelemetryHistogram, BucketLayoutIsMonotoneAndContainsItsValues) {
  // Sweep seven orders of magnitude: indices must be non-decreasing and
  // every value must lie within (upper(idx - 1), upper(idx)].
  int previous = -1;
  for (double ms = 2e-3; ms < 2e4; ms *= 1.07) {
    const int idx = LatencyHistogram::bucket_index(ms);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_GE(idx, previous) << "ms=" << ms;
    EXPECT_LE(ms, LatencyHistogram::bucket_upper_ms(idx) * (1 + 1e-12))
        << "ms=" << ms;
    if (idx > 0) {
      EXPECT_GE(ms, LatencyHistogram::bucket_upper_ms(idx - 1) * (1 - 1e-12))
          << "ms=" << ms;
    }
    previous = idx;
  }
  // Sub-microsecond values land in the underflow bucket, absurdly large
  // ones in the overflow bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(1e-6), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1e9),
            LatencyHistogram::kBuckets - 1);
  EXPECT_TRUE(std::isinf(
      LatencyHistogram::bucket_upper_ms(LatencyHistogram::kBuckets - 1)));
}

TEST(TelemetryHistogram, PercentileOverestimatesByAtMostTwentyFivePercent) {
  // 1000 known samples: the documented contract is that a percentile
  // estimate never under-reports and overshoots by at most the relative
  // bucket width (25%).
  LatencyHistogram histogram;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    const double ms = 0.01 * i;  // 0.01 .. 10 ms
    values.push_back(ms);
    histogram.record(ms);
  }
  const LatencyHistogram::Snapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.count, 1000u);
  for (const double p : {0.50, 0.90, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(std::ceil(p * 1000.0)) - 1];
    const double estimate = snap.percentile(p);
    EXPECT_GE(estimate, exact * (1 - 1e-12)) << "p=" << p;
    EXPECT_LE(estimate, exact * 1.25 + 1e-9) << "p=" << p;
  }
  EXPECT_NEAR(snap.max_ms, 10.0, 1e-9);
  // The sum accumulates in integer nanoseconds: up to 1 ns truncation per
  // sample.
  EXPECT_NEAR(snap.sum_ms, 0.01 * 1000.0 * 1001.0 / 2.0, 1e-2);
}

TEST(TelemetryHistogram, QuantileInOverflowBucketReturnsRecordedMax) {
  LatencyHistogram histogram;
  histogram.record(1.0);
  histogram.record(1e9);  // beyond the top octave -> overflow bucket
  const LatencyHistogram::Snapshot snap = histogram.snapshot();
  EXPECT_NEAR(snap.percentile(1.0), 1e9, 1.0);
  EXPECT_NEAR(snap.max_ms, 1e9, 1.0);
}

TEST(TelemetryHistogram, NegativeAndNonFiniteRecordAsZero) {
  LatencyHistogram histogram;
  histogram.record(-3.0);
  histogram.record(std::numeric_limits<double>::quiet_NaN());
  histogram.record(std::numeric_limits<double>::infinity());
  const LatencyHistogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.max_ms, 0.0);
  EXPECT_EQ(snap.percentile(0.99), 0.0);
}

TEST(TelemetryHistogram, SnapshotsMergeBucketwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 100; ++i) a.record(0.5);
  for (int i = 0; i < 100; ++i) b.record(50.0);
  LatencyHistogram::Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 200u);
  EXPECT_NEAR(merged.sum_ms, 100 * 0.5 + 100 * 50.0, 1e-2);
  EXPECT_NEAR(merged.max_ms, 50.0, 1e-9);
  // The median sits in the low half, p99 in the high half.
  EXPECT_LE(merged.percentile(0.5), 0.5 * 1.25 + 1e-9);
  EXPECT_GE(merged.percentile(0.99), 50.0 * (1 - 1e-12));
}

TEST(TelemetryHistogram, ConcurrentRecordingLosesNothing) {
  // Exercised under TSan in CI: recording is relaxed-atomic and wait-free,
  // and no sample may be lost or torn.
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.record(0.1 * (1 + (t + i) % 7));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const LatencyHistogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t bucketed = 0;
  for (const std::uint64_t c : snap.buckets) bucketed += c;
  EXPECT_EQ(bucketed, snap.count);
  EXPECT_NEAR(snap.max_ms, 0.7, 1e-9);
}

// ---------------------------------------------------------------------------
// TelemetryStructureTable
// ---------------------------------------------------------------------------

StructureObservation observation(bool hit, std::uint64_t solves,
                                 std::uint64_t iterations) {
  StructureObservation o;
  o.pool_hit = hit;
  o.solves = solves;
  o.ipm_iterations = iterations;
  o.warm_started_solves = solves > 0 ? solves - 1 : 0;
  o.recovered_solves = 0;
  return o;
}

TEST(TelemetryStructureTable, AggregatesPerStructureHash) {
  ServiceTelemetry telemetry;
  telemetry.record_structure(0xaaa, observation(false, 3, 30));
  telemetry.record_structure(0xaaa, observation(true, 2, 15));
  telemetry.record_structure(0xbbb, observation(false, 1, 9));
  const std::vector<StructureRow> rows = telemetry.structure_rows();
  ASSERT_EQ(rows.size(), 2u);
  // Hottest (most solves) first.
  EXPECT_EQ(rows[0].key_hash, 0xaaau);
  EXPECT_EQ(rows[0].requests, 2u);
  EXPECT_EQ(rows[0].pool_hits, 1u);
  EXPECT_EQ(rows[0].pool_misses, 1u);
  EXPECT_EQ(rows[0].solves, 5u);
  EXPECT_EQ(rows[0].ipm_iterations, 45u);
  EXPECT_EQ(rows[0].warm_started_solves, 3u);
  EXPECT_EQ(rows[1].key_hash, 0xbbbu);
  EXPECT_EQ(rows[1].requests, 1u);
  EXPECT_EQ(telemetry.structure_evictions(), 0u);
}

TEST(TelemetryStructureTable, EvictsLeastRecentlySeenAtTheBound) {
  ServiceTelemetry telemetry(/*max_structures=*/4);
  for (std::uint64_t h = 1; h <= 10; ++h) {
    telemetry.record_structure(h, observation(false, 1, 1));
  }
  std::vector<StructureRow> rows = telemetry.structure_rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(telemetry.structure_evictions(), 6u);
  // The four most recently seen hashes survive.
  std::vector<std::uint64_t> hashes;
  for (const StructureRow& row : rows) hashes.push_back(row.key_hash);
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(hashes, (std::vector<std::uint64_t>{7, 8, 9, 10}));
  // Touching a resident hash refreshes its recency: it must survive the
  // next insertion; the stalest resident (8) goes instead.
  telemetry.record_structure(7, observation(true, 1, 1));
  telemetry.record_structure(11, observation(false, 1, 1));
  hashes.clear();
  for (const StructureRow& row : telemetry.structure_rows()) {
    hashes.push_back(row.key_hash);
  }
  EXPECT_NE(std::find(hashes.begin(), hashes.end(), 7), hashes.end());
  EXPECT_EQ(std::find(hashes.begin(), hashes.end(), 8), hashes.end());
}

TEST(TelemetryStructureTable, KindAndStageNamesRoundTrip) {
  EXPECT_EQ(telemetry::request_kind_from_string("solve"), RequestKind::kSolve);
  EXPECT_EQ(telemetry::request_kind_from_string("sweep"), RequestKind::kSweep);
  EXPECT_EQ(telemetry::request_kind_from_string("min_period"),
            RequestKind::kMinPeriod);
  EXPECT_EQ(telemetry::request_kind_from_string("two_phase"),
            RequestKind::kTwoPhase);
  EXPECT_EQ(telemetry::request_kind_from_string("latency"),
            RequestKind::kLatency);
  EXPECT_EQ(telemetry::request_kind_from_string("no_such_kind"),
            RequestKind::kOther);
  for (int k = 0; k < telemetry::kNumRequestKinds; ++k) {
    const auto kind = static_cast<RequestKind>(k);
    EXPECT_EQ(telemetry::request_kind_from_string(telemetry::to_string(kind)),
              kind);
  }
  EXPECT_STREQ(telemetry::to_string(Stage::kQueue), "queue");
  EXPECT_STREQ(telemetry::to_string(Stage::kSolve), "solve");
  EXPECT_STREQ(telemetry::to_string(Stage::kWrite), "write");
}

// ---------------------------------------------------------------------------
// TelemetryCache
// ---------------------------------------------------------------------------

CacheEntry minimal_entry(std::string key) {
  CacheEntry entry;
  entry.key = std::move(key);
  entry.symbolic.dim = 2;
  entry.symbolic.pattern_hash = 7;
  entry.symbolic.permutation = {0, 1};
  entry.symbolic.etree_parent = {1, -1};
  entry.symbolic.factor_col_ptr = {0, 1, 3};
  return entry;
}

TEST(TelemetryCache, FileNamesAreStableHashesOfTheKey) {
  const std::string name = StructureCache::file_name_for_key("some key");
  ASSERT_EQ(name.size(), 16u + 5u);  // 16 hex digits + ".bbsc"
  EXPECT_EQ(name.substr(16), ".bbsc");
  EXPECT_EQ(name, StructureCache::file_name_for_key("some key"));
  EXPECT_NE(name, StructureCache::file_name_for_key("another key"));
}

TEST(TelemetryCache, AtCapacityNewKeysAreDroppedButRefreshesPass) {
  ScopedTempDir dir;
  StructureCache cache(dir.path, /*max_entries=*/1);
  cache.store(minimal_entry("k1"));
  cache.store(minimal_entry("k2"));  // over capacity: dropped, counted
  cache.store(minimal_entry("k1"));  // refresh of a resident key: accepted
  cache.flush();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.contains("k1"));
  EXPECT_FALSE(cache.contains("k2"));
  const telemetry::StructureCacheStats stats = cache.stats();
  EXPECT_EQ(stats.saves, 2u);
  EXPECT_EQ(stats.save_errors, 1u);
}

TEST(TelemetryCache, EngineRoundTripWarmRestartSkipsSymbolicWork) {
  ScopedTempDir dir;
  const Request request = solve_request(testing::paper_t1(), "rt");

  double cold_objective = 0.0;
  {
    StructureCache cache(dir.path);
    EXPECT_EQ(cache.load(), 0u);
    EngineOptions options;
    options.structure_cache = &cache;
    Engine engine(options);
    const Response cold = engine.run(request);
    ASSERT_EQ(cold.status, ResponseStatus::kOk) << cold.error;
    EXPECT_FALSE(cold.diagnostics.session_reused);
    EXPECT_EQ(cold.diagnostics.symbolic_factorisations, 1);
    cold_objective =
        std::get<api::SolvePayload>(cold.payload).mapping.objective_rounded;
    cache.flush();
    EXPECT_EQ(cache.stats().saves, 1u);
    EXPECT_EQ(cache.size(), 1u);
  }

  // "Restart": a fresh cache over the same directory, a fresh engine
  // pre-warmed from it. The request must be a pool hit served with zero
  // symbolic factorisations — the warm-restart invariant.
  StructureCache cache(dir.path);
  EXPECT_EQ(cache.load(), 1u);
  EXPECT_EQ(cache.stats().load_errors, 0u);
  EngineOptions options;
  options.structure_cache = &cache;
  Engine engine(options);
  for (const CacheEntry& entry : cache.entries()) {
    EXPECT_TRUE(engine.prewarm_entry(entry));
  }
  EXPECT_EQ(engine.stats().prewarmed_sessions, 1u);
  EXPECT_EQ(engine.pooled_sessions(), 1u);

  const Response warm = engine.run(request);
  ASSERT_EQ(warm.status, ResponseStatus::kOk) << warm.error;
  EXPECT_TRUE(warm.diagnostics.session_reused);
  EXPECT_EQ(warm.diagnostics.symbolic_factorisations, 0);
  EXPECT_EQ(engine.stats().symbolic_factorisations, 0u);
  EXPECT_EQ(engine.stats().pool_hits, 1u);
  // Same optimisation problem, same answer.
  EXPECT_NEAR(
      std::get<api::SolvePayload>(warm.payload).mapping.objective_rounded,
      cold_objective, 1e-9);
}

TEST(TelemetryCache, ColdMissWithCacheSeedsTheSymbolicAnalysis) {
  // Even without start-up pre-warming, a pool miss on a cached structure
  // seeds the fresh session's symbolic analysis from the cache: the
  // request still reports zero symbolic factorisations (a symbolic *load*
  // happened instead).
  ScopedTempDir dir;
  const Request request = solve_request(testing::two_task_chain(), "seed");
  {
    StructureCache cache(dir.path);
    EngineOptions options;
    options.structure_cache = &cache;
    Engine engine(options);
    const Response cold = engine.run(request);
    ASSERT_EQ(cold.status, ResponseStatus::kOk) << cold.error;
    EXPECT_EQ(cold.diagnostics.symbolic_factorisations, 1);
    cache.flush();
  }
  StructureCache cache(dir.path);
  ASSERT_EQ(cache.load(), 1u);
  EngineOptions options;
  options.structure_cache = &cache;
  Engine engine(options);  // nothing pre-warmed: first request is a miss
  const Response seeded = engine.run(request);
  ASSERT_EQ(seeded.status, ResponseStatus::kOk) << seeded.error;
  EXPECT_FALSE(seeded.diagnostics.session_reused);
  EXPECT_EQ(seeded.diagnostics.symbolic_factorisations, 0);
  EXPECT_EQ(engine.stats().symbolic_factorisations, 0u);
  EXPECT_GE(cache.stats().lookup_hits, 1u);
}

TEST(TelemetryCache, DispatcherPrewarmsWorkerPoolsFromTheCache) {
  ScopedTempDir dir;
  {
    StructureCache cache(dir.path);
    EngineOptions options;
    options.structure_cache = &cache;
    Engine engine(options);
    const Response r = engine.run(solve_request(testing::paper_t1()));
    ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
    cache.flush();
  }
  StructureCache cache(dir.path);
  ASSERT_EQ(cache.load(), 1u);
  service::DispatcherOptions options;
  options.workers = 2;
  options.engine.structure_cache = &cache;
  service::Dispatcher dispatcher(options);
  // The constructor routed the entry to its structure-affine worker before
  // any worker thread started; the first snapshot already sees it.
  const service::ServiceStats startup = dispatcher.stats();
  EXPECT_EQ(startup.prewarmed_sessions, 1u);
  EXPECT_EQ(startup.symbolic_factorisations, 0u);
  dispatcher.stop();
}

TEST(TelemetryCache, CorruptStaleAndMisnamedEntriesAreSkippedAndCounted) {
  ScopedTempDir source;
  std::string valid_name;
  std::string valid_bytes;
  {
    StructureCache cache(source.path);
    EngineOptions options;
    options.structure_cache = &cache;
    Engine engine(options);
    const Response r = engine.run(solve_request(testing::paper_t1()));
    ASSERT_EQ(r.status, ResponseStatus::kOk) << r.error;
    cache.flush();
    const std::vector<CacheEntry> entries = cache.entries();
    ASSERT_EQ(entries.size(), 1u);
    valid_name = StructureCache::file_name_for_key(entries[0].key);
    valid_bytes = read_file(source.path + "/" + valid_name);
    ASSERT_FALSE(valid_bytes.empty());
  }

  ScopedTempDir broken;
  // (1) Truncated mid-payload.
  write_file(broken.path + "/" + valid_name,
             valid_bytes.substr(0, valid_bytes.size() / 2));
  // (2) Checksum mismatch: flip the last payload byte.
  std::string flipped = valid_bytes;
  flipped.back() = flipped.back() == '}' ? ']' : '}';
  write_file(broken.path + "/00000000000000aa.bbsc", flipped);
  // (3) Stale format version: a v1 entry. Its pool key carries the old KKT
  // regularisation default, so no request could ever hit it.
  const std::string header = "BBSCACHE v2 ";
  ASSERT_EQ(valid_bytes.compare(0, header.size(), header), 0);
  std::string stale = valid_bytes;
  stale.replace(header.size() - 3, 2, "v1");
  write_file(broken.path + "/00000000000000bb.bbsc", stale);
  // (4) Valid bytes under a name the entry's key does not hash to.
  write_file(broken.path + "/00000000000000cc.bbsc", valid_bytes);
  // A non-.bbsc file is not a cache entry at all: ignored, not an error.
  write_file(broken.path + "/README.txt", "not a cache entry");

  StructureCache cache(broken.path);
  EXPECT_EQ(cache.load(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  const telemetry::StructureCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries_loaded, 0u);
  EXPECT_EQ(stats.load_errors, 4u);
}

// ---------------------------------------------------------------------------
// TelemetryTrace
// ---------------------------------------------------------------------------

/// Finds the events of a given name in a trace's JSON document.
std::vector<io::JsonObject> events_named(const io::JsonValue& doc,
                                         const std::string& name) {
  std::vector<io::JsonObject> found;
  for (const io::JsonValue& event : doc.as_object().at("events").as_array()) {
    if (event.as_object().at("name").as_string() == name) {
      found.push_back(event.as_object());
    }
  }
  return found;
}

std::shared_ptr<const Trace> closed_trace(std::string id, std::string kind,
                                          std::string status,
                                          std::string error_code = "") {
  auto trace = std::make_shared<Trace>(std::move(id), std::move(kind));
  trace->add_event("accept");
  trace->close(std::move(status), std::move(error_code));
  return trace;
}

TEST(TelemetryTrace, NextIdIsSixteenHexDigitsAndUnique) {
  const std::string a = Trace::next_id();
  const std::string b = Trace::next_id();
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_NE(a, b);
}

TEST(TelemetryTrace, EventsAreStampedRelativeToCreationInOrder) {
  Trace trace("id1", "solve");
  trace.add_event("accept");
  trace.add_event("quota", "ok");
  trace.add_span("queue", 0.0, {{"worker", 3.0}});
  const io::JsonValue doc = trace.to_json_value();
  const io::JsonObject& root = doc.as_object();
  EXPECT_EQ(root.at("id").as_string(), "id1");
  EXPECT_EQ(root.at("kind").as_string(), "solve");
  EXPECT_EQ(root.at("status").as_string(), "open");  // not yet closed
  const io::JsonArray& events = root.at("events").as_array();
  ASSERT_EQ(events.size(), 3u);
  double previous = 0.0;
  for (const io::JsonValue& event : events) {
    const double t = event.as_object().at("t_ms").as_number();
    EXPECT_GE(t, previous);
    previous = t;
  }
  // Instant events carry no dur_ms; the span does, plus its inline attrs.
  EXPECT_FALSE(events[0].as_object().contains("dur_ms"));
  EXPECT_EQ(events[1].as_object().at("detail").as_string(), "ok");
  EXPECT_TRUE(events[2].as_object().contains("dur_ms"));
  EXPECT_EQ(events[2].as_object().at("worker").as_number(), 3.0);
}

TEST(TelemetryTrace, SpanStartPrecedesItsEnd) {
  Trace trace("id2", "solve");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  trace.add_span("solve", 2.0);
  const io::JsonValue doc = trace.to_json_value();
  const std::vector<io::JsonObject> spans = events_named(doc, "solve");
  ASSERT_EQ(spans.size(), 1u);
  const double t = spans[0].at("t_ms").as_number();
  const double dur = spans[0].at("dur_ms").as_number();
  EXPECT_NEAR(dur, 2.0, 1e-9);
  // t_ms = now - dur: the span started at least 3 ms after creation and
  // ends in the past relative to any later elapsed_ms() reading.
  EXPECT_GE(t, 3.0 * 0.9);
  EXPECT_LE(t + dur, trace.elapsed_ms() + 1e-9);
}

TEST(TelemetryTrace, CloseIsIdempotentFirstCloseWins) {
  Trace trace("id3", "solve");
  trace.close("ok");
  ASSERT_TRUE(trace.closed());
  EXPECT_FALSE(trace.error());
  const double wall = trace.wall_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  trace.close("error", "deadline_exceeded");  // must be ignored
  EXPECT_EQ(trace.status(), "ok");
  EXPECT_FALSE(trace.error());
  EXPECT_EQ(trace.wall_ms(), wall);
  EXPECT_FALSE(trace.to_json_value().as_object().contains("error_code"));
}

TEST(TelemetryTrace, ErrorTraceCarriesTheErrorCode) {
  Trace trace("id4", "solve");
  trace.close("error", "invalid_configuration");
  EXPECT_TRUE(trace.error());
  const io::JsonValue doc = trace.to_json_value();
  const io::JsonObject& root = doc.as_object();
  EXPECT_EQ(root.at("status").as_string(), "error");
  EXPECT_EQ(root.at("error_code").as_string(), "invalid_configuration");
  EXPECT_GE(root.at("wall_ms").as_number(), 0.0);
}

TEST(TelemetryTrace, IpmIterationEventsAreCappedLadderRungsAreNot) {
  Trace trace("id5", "solve");
  const int kIterations = static_cast<int>(Trace::kMaxIpmEvents) + 100;
  for (int i = 0; i < kIterations; ++i) {
    trace.ipm_iteration(i, 1e-3, 1e-6, 1e-6, 0.9);
  }
  trace.ipm_ladder_rung(1);
  const io::JsonValue doc = trace.to_json_value();
  EXPECT_EQ(events_named(doc, "ipm_iteration").size(), Trace::kMaxIpmEvents);
  EXPECT_EQ(events_named(doc, "ipm_ladder_rung").size(), 1u);
  EXPECT_EQ(doc.as_object().at("ipm_events_dropped").as_number(), 100.0);
  const io::JsonObject first = events_named(doc, "ipm_iteration")[0];
  EXPECT_EQ(first.at("iteration").as_number(), 0.0);
  EXPECT_EQ(first.at("mu").as_number(), 1e-3);
  EXPECT_EQ(first.at("step").as_number(), 0.9);
}

TEST(TelemetryTrace, JsonDocumentRoundTripsThroughTheParser) {
  Trace trace("id6", "sweep");
  trace.add_span("write", 0.25, {{"bytes", 512.0}});
  trace.close("ok");
  const std::string line = io::write_json_compact(trace.to_json_value());
  const io::JsonValue parsed = io::parse_json(line);
  EXPECT_EQ(parsed.as_object().at("id").as_string(), "id6");
  EXPECT_EQ(parsed.as_object().at("kind").as_string(), "sweep");
  const std::vector<io::JsonObject> spans = events_named(parsed, "write");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("bytes").as_number(), 512.0);
}

// ---------------------------------------------------------------------------
// TelemetryTraceRing
// ---------------------------------------------------------------------------

TEST(TelemetryTraceRing, CollectsNewestFirstAndEvictsBeyondCapacity) {
  TraceRing ring(/*capacity=*/8, /*shards=*/4);
  for (int i = 0; i < 20; ++i) {
    ring.push(closed_trace("t" + std::to_string(i), "solve", "ok"));
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.capacity(), 8u);
  const auto traces = ring.collect(TraceFilter{});
  ASSERT_EQ(traces.size(), 8u);
  // Each shard keeps its freshest entries: exactly t12..t19 survive,
  // returned newest first.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(traces[i]->id(), "t" + std::to_string(19 - i));
  }
}

TEST(TelemetryTraceRing, FiltersByIdKindAndErrorsOnly) {
  TraceRing ring(16);
  ring.push(closed_trace("a", "solve", "ok"));
  ring.push(closed_trace("b", "sweep", "error", "solver_failure"));
  ring.push(closed_trace("c", "solve", "infeasible"));

  TraceFilter by_id;
  by_id.id = "b";
  auto matches = ring.collect(by_id);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0]->id(), "b");

  TraceFilter by_kind;
  by_kind.kind = "solve";
  matches = ring.collect(by_kind);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0]->id(), "c");  // newest first
  EXPECT_EQ(matches[1]->id(), "a");

  TraceFilter errors;
  errors.errors_only = true;
  matches = ring.collect(errors);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0]->id(), "b");
  EXPECT_TRUE(matches[0]->error());

  TraceFilter nothing;
  nothing.id = "no-such-id";
  EXPECT_TRUE(ring.collect(nothing).empty());
}

TEST(TelemetryTraceRing, MinDurationAndLimitBoundTheResult) {
  TraceRing ring(16);
  auto slow = std::make_shared<Trace>("slow", "solve");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  slow->close("ok");
  ring.push(slow);
  for (int i = 0; i < 5; ++i) {
    ring.push(closed_trace("fast" + std::to_string(i), "solve", "ok"));
  }

  // A 20 ms trace always clears a 5 ms floor; an absurd floor matches none.
  TraceFilter floor;
  floor.min_duration_ms = 5.0;
  auto matches = ring.collect(floor);
  ASSERT_GE(matches.size(), 1u);
  bool found_slow = false;
  for (const auto& t : matches) found_slow |= t->id() == "slow";
  EXPECT_TRUE(found_slow);
  floor.min_duration_ms = 1e9;
  EXPECT_TRUE(ring.collect(floor).empty());

  TraceFilter limited;
  limited.limit = 3;
  matches = ring.collect(limited);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0]->id(), "fast4");  // still newest first
}

// ---------------------------------------------------------------------------
// TelemetryTraceLog
// ---------------------------------------------------------------------------

TEST(TelemetryTraceLog, LogsOnlySlowOrErrorTraces) {
  ScopedTempDir dir;
  const std::string path = dir.path + "/traces.jsonl";
  TraceLog log(path, /*slow_ms=*/50.0);
  EXPECT_EQ(log.path(), path);
  EXPECT_EQ(log.slow_ms(), 50.0);

  // Fast and healthy: does not qualify.
  EXPECT_FALSE(log.offer(closed_trace("fast", "solve", "ok")));
  // Error: qualifies regardless of duration.
  EXPECT_TRUE(log.offer(closed_trace("bad", "solve", "error", "ipm_failure")));
  // Slow: qualifies on wall_ms alone.
  auto slow = std::make_shared<Trace>("slow", "solve");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  slow->close("ok");
  EXPECT_TRUE(log.offer(slow));

  log.flush();
  EXPECT_EQ(log.stats().logged, 2u);
  EXPECT_EQ(log.stats().write_errors, 0u);
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> ids;
  while (std::getline(in, line)) {
    ids.push_back(io::parse_json(line).as_object().at("id").as_string());
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"bad", "slow"}));
}

TEST(TelemetryTraceLog, ZeroThresholdMeansErrorsOnly) {
  ScopedTempDir dir;
  TraceLog log(dir.path + "/traces.jsonl", /*slow_ms=*/0.0);
  auto aged = std::make_shared<Trace>("aged", "solve");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  aged->close("ok");
  EXPECT_FALSE(log.offer(aged));  // slow never triggers at threshold 0
  EXPECT_TRUE(log.offer(closed_trace("bad", "solve", "error", "x")));
  log.flush();
  EXPECT_EQ(log.stats().logged, 1u);
}

TEST(TelemetryTraceLog, UnwritablePathCountsWriteErrors) {
  ScopedTempDir dir;
  TraceLog log(dir.path + "/no/such/dir/traces.jsonl", /*slow_ms=*/0.0);
  EXPECT_TRUE(log.offer(closed_trace("bad", "solve", "error", "x")));
  log.flush();
  EXPECT_EQ(log.stats().logged, 0u);
  EXPECT_EQ(log.stats().write_errors, 1u);
}

// ---------------------------------------------------------------------------
// TelemetryCacheGc
// ---------------------------------------------------------------------------

/// Backdates a file's mtime so LRU-by-mtime ordering is deterministic.
void age_file(const std::string& path, int seconds_old) {
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() -
                std::chrono::seconds(seconds_old));
}

TEST(TelemetryCacheGc, LoadEvictsOldestFilesBeyondMaxEntries) {
  ScopedTempDir dir;
  // Five .bbsc files, oldest first: e0 (5 min old) .. e4 (1 min old).
  for (int i = 0; i < 5; ++i) {
    const std::string path =
        dir.path + "/e" + std::to_string(i) + ".bbsc";
    write_file(path, "not a valid entry");
    age_file(path, (5 - i) * 60);
  }
  StructureCache cache(dir.path, /*max_entries=*/2);
  cache.load();
  EXPECT_EQ(cache.stats().evictions, 3u);
  // The two newest files survive (they then fail to parse, which is the
  // orthogonal fail-soft path, not GC's concern).
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/e0.bbsc"));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/e1.bbsc"));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/e2.bbsc"));
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/e3.bbsc"));
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/e4.bbsc"));
  EXPECT_EQ(cache.stats().load_errors, 2u);
}

TEST(TelemetryCacheGc, MaxBytesBudgetEvictsUntilUnderTheLimit) {
  ScopedTempDir dir;
  // Five 100-byte files; a 250-byte budget keeps the two newest.
  for (int i = 0; i < 5; ++i) {
    const std::string path =
        dir.path + "/b" + std::to_string(i) + ".bbsc";
    write_file(path, std::string(100, 'x'));
    age_file(path, (5 - i) * 60);
  }
  StructureCache cache(dir.path, /*max_entries=*/1024, /*max_bytes=*/250);
  cache.load();
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/b3.bbsc"));
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/b4.bbsc"));
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/b0.bbsc"));
  // Non-.bbsc files never count against the budget and are never removed.
  write_file(dir.path + "/README.txt", std::string(1000, 'y'));
  StructureCache again(dir.path, /*max_entries=*/1024, /*max_bytes=*/250);
  again.load();
  EXPECT_EQ(again.stats().evictions, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/README.txt"));
}

TEST(TelemetryCacheGc, WriteBehindSaveEvictsColdFilesNotTheFreshWrite) {
  ScopedTempDir dir;
  // A stale junk entry much older than anything the cache will write.
  const std::string junk = dir.path + "/00000000000000ff.bbsc";
  write_file(junk, "stale junk");
  age_file(junk, 3600);
  StructureCache cache(dir.path, /*max_entries=*/1);
  cache.store(minimal_entry("k"));
  cache.flush();
  // The write-behind save re-ran GC: the junk file lost, the fresh entry
  // (newest mtime by construction) survived.
  EXPECT_FALSE(std::filesystem::exists(junk));
  EXPECT_TRUE(std::filesystem::exists(
      dir.path + "/" + StructureCache::file_name_for_key("k")));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().saves, 1u);
}

TEST(TelemetryCacheGc, WithinBudgetNothingIsEvicted) {
  ScopedTempDir dir;
  {
    StructureCache cache(dir.path);
    cache.store(minimal_entry("k1"));
    cache.store(minimal_entry("k2"));
    cache.flush();
  }
  StructureCache cache(dir.path, /*max_entries=*/16, /*max_bytes=*/1 << 20);
  EXPECT_EQ(cache.load(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(TelemetryCache, MissingDirectoryIsCreatedAndLoadsEmpty) {
  ScopedTempDir dir;
  const std::string nested = dir.path + "/nested/cache";
  {
    StructureCache cache(nested);
    EXPECT_EQ(cache.load(), 0u);
    EXPECT_EQ(cache.stats().load_errors, 0u);
    // And it is usable: a store round-trips through the new directory.
    cache.store(minimal_entry("k"));
    cache.flush();
  }
  StructureCache reread(nested);
  EXPECT_EQ(reread.load(), 1u);
  EXPECT_TRUE(reread.contains("k"));
}

}  // namespace
}  // namespace bbs
