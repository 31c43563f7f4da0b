#include "bbs/service/jsonl_stream.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "bbs/common/assert.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/io/service_io.hpp"
#include "bbs/telemetry/structure_cache.hpp"

namespace bbs::service {

using io::JsonArray;
using io::JsonObject;
using io::JsonValue;

namespace {

JsonValue engine_stats_to_json_value(const api::EngineStats& stats) {
  JsonObject o;
  o["requests"] = JsonValue(static_cast<double>(stats.requests));
  o["ok"] = JsonValue(static_cast<double>(stats.ok));
  o["infeasible"] = JsonValue(static_cast<double>(stats.infeasible));
  o["errors"] = JsonValue(static_cast<double>(stats.errors));
  o["pool_hits"] = JsonValue(static_cast<double>(stats.pool_hits));
  o["pool_misses"] = JsonValue(static_cast<double>(stats.pool_misses));
  o["evictions"] = JsonValue(static_cast<double>(stats.evictions));
  o["symbolic_factorisations"] =
      JsonValue(static_cast<double>(stats.symbolic_factorisations));
  o["ipm_iterations"] = JsonValue(static_cast<double>(stats.ipm_iterations));
  o["solves"] = JsonValue(static_cast<double>(stats.solves));
  o["warm_started_solves"] =
      JsonValue(static_cast<double>(stats.warm_started_solves));
  o["recovered_solves"] =
      JsonValue(static_cast<double>(stats.recovered_solves));
  o["prewarmed_sessions"] =
      JsonValue(static_cast<double>(stats.prewarmed_sessions));
  return JsonValue(std::move(o));
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return std::string(buf);
}

/// Per-(kind, stage) latency snapshots, kinds with traffic only:
/// {"solve":{"queue":{"count":..,"p50_ms":..,...},"solve":{...},...},...}
JsonValue latency_to_json_value(const telemetry::ServiceTelemetry& telemetry) {
  JsonObject kinds;
  for (int k = 0; k < telemetry::kNumRequestKinds; ++k) {
    const auto kind = static_cast<telemetry::RequestKind>(k);
    JsonObject stages;
    for (int s = 0; s < telemetry::kNumStages; ++s) {
      const auto stage = static_cast<telemetry::Stage>(s);
      const telemetry::LatencyHistogram::Snapshot snap =
          telemetry.histogram(kind, stage).snapshot();
      if (snap.count == 0) continue;
      JsonObject o;
      o["count"] = JsonValue(static_cast<double>(snap.count));
      o["p50_ms"] = JsonValue(snap.percentile(0.50));
      o["p90_ms"] = JsonValue(snap.percentile(0.90));
      o["p99_ms"] = JsonValue(snap.percentile(0.99));
      o["max_ms"] = JsonValue(snap.max_ms);
      o["sum_ms"] = JsonValue(snap.sum_ms);
      stages[telemetry::to_string(stage)] = JsonValue(std::move(o));
    }
    if (!stages.entries().empty()) {
      kinds[telemetry::to_string(kind)] = JsonValue(std::move(stages));
    }
  }
  return JsonValue(std::move(kinds));
}

JsonValue structures_to_json_value(
    const telemetry::ServiceTelemetry& telemetry) {
  JsonArray rows;
  for (const telemetry::StructureRow& row : telemetry.structure_rows()) {
    JsonObject o;
    o["structure"] = JsonValue(hex64(row.key_hash));
    o["requests"] = JsonValue(static_cast<double>(row.requests));
    o["pool_hits"] = JsonValue(static_cast<double>(row.pool_hits));
    o["pool_misses"] = JsonValue(static_cast<double>(row.pool_misses));
    o["solves"] = JsonValue(static_cast<double>(row.solves));
    o["ipm_iterations"] =
        JsonValue(static_cast<double>(row.ipm_iterations));
    o["warm_started_solves"] =
        JsonValue(static_cast<double>(row.warm_started_solves));
    o["recovered_solves"] =
        JsonValue(static_cast<double>(row.recovered_solves));
    rows.push_back(JsonValue(std::move(o)));
  }
  JsonObject root;
  root["rows"] = JsonValue(std::move(rows));
  root["evictions"] =
      JsonValue(static_cast<double>(telemetry.structure_evictions()));
  root["max_structures"] =
      JsonValue(static_cast<double>(telemetry.max_structures()));
  return JsonValue(std::move(root));
}

/// Parses the optional filter fields of a {"kind":"trace"} control line.
/// Strict like set_config: unknown keys and mistyped values throw, so a
/// typoed filter is a parse error at the line's position instead of a
/// silently unfiltered reply.
telemetry::TraceFilter trace_filter_from_json(const JsonValue& doc) {
  telemetry::TraceFilter filter;
  for (const auto& [key, value] : doc.as_object().entries()) {
    if (key == "kind" || key == "id" || key == "schema_version") continue;
    if (key == "trace_id") {
      if (!value.is_string()) {
        throw ModelError("trace: trace_id must be a string");
      }
      filter.id = value.as_string();
    } else if (key == "request_kind") {
      if (!value.is_string()) {
        throw ModelError("trace: request_kind must be a string");
      }
      filter.kind = value.as_string();
    } else if (key == "min_duration_ms") {
      if (!value.is_number() || value.as_number() < 0.0) {
        throw ModelError("trace: min_duration_ms must be a non-negative "
                         "number");
      }
      filter.min_duration_ms = value.as_number();
    } else if (key == "errors_only") {
      if (!value.is_bool()) {
        throw ModelError("trace: errors_only must be a boolean");
      }
      filter.errors_only = value.as_bool();
    } else if (key == "limit") {
      if (!value.is_number() || value.as_number() < 0.0) {
        throw ModelError("trace: limit must be a non-negative number");
      }
      filter.limit = static_cast<std::size_t>(value.as_number());
    } else {
      throw ModelError("trace: unknown key '" + key + "'");
    }
  }
  return filter;
}

JsonValue cache_stats_to_json_value(const telemetry::StructureCache& cache) {
  const telemetry::StructureCacheStats stats = cache.stats();
  JsonObject o;
  o["directory"] = JsonValue(cache.directory());
  o["entries"] = JsonValue(static_cast<double>(cache.size()));
  o["entries_loaded"] = JsonValue(static_cast<double>(stats.entries_loaded));
  o["load_errors"] = JsonValue(static_cast<double>(stats.load_errors));
  o["saves"] = JsonValue(static_cast<double>(stats.saves));
  o["save_errors"] = JsonValue(static_cast<double>(stats.save_errors));
  o["prewarm_errors"] = JsonValue(static_cast<double>(stats.prewarm_errors));
  o["lookup_hits"] = JsonValue(static_cast<double>(stats.lookup_hits));
  o["lookup_misses"] = JsonValue(static_cast<double>(stats.lookup_misses));
  o["evictions"] = JsonValue(static_cast<double>(stats.evictions));
  return JsonValue(std::move(o));
}

}  // namespace

JsonValue service_stats_to_json_value(const ServiceStats& stats) {
  JsonObject root;
  root["requests"] = JsonValue(static_cast<double>(stats.requests));
  root["ok"] = JsonValue(static_cast<double>(stats.ok));
  root["infeasible"] = JsonValue(static_cast<double>(stats.infeasible));
  root["errors"] = JsonValue(static_cast<double>(stats.errors));
  root["warm_hits"] = JsonValue(static_cast<double>(stats.warm_hits));
  root["symbolic_factorisations"] =
      JsonValue(static_cast<double>(stats.symbolic_factorisations));
  root["recovered_solves"] =
      JsonValue(static_cast<double>(stats.recovered_solves));
  root["prewarmed_sessions"] =
      JsonValue(static_cast<double>(stats.prewarmed_sessions));
  root["queue_depth"] = JsonValue(static_cast<double>(stats.queue_depth));
  root["stolen"] = JsonValue(static_cast<double>(stats.stolen));
  root["deadline_shed"] = JsonValue(static_cast<double>(stats.deadline_shed));
  root["timed_out_mid_solve"] =
      JsonValue(static_cast<double>(stats.timed_out_mid_solve));
  root["cancelled"] = JsonValue(static_cast<double>(stats.cancelled));
  root["connections_accepted"] =
      JsonValue(static_cast<double>(stats.connections_accepted));
  root["accept_failures"] =
      JsonValue(static_cast<double>(stats.accept_failures));
  root["slow_client_disconnects"] =
      JsonValue(static_cast<double>(stats.slow_client_disconnects));
  root["quota_rejections"] =
      JsonValue(static_cast<double>(stats.quota_rejections));
  root["overload_rejections"] =
      JsonValue(static_cast<double>(stats.overload_rejections));
  JsonArray outboxes;
  for (const std::size_t depth : stats.connection_outbox_depths) {
    outboxes.push_back(JsonValue(static_cast<double>(depth)));
  }
  root["connection_outbox_depths"] = JsonValue(std::move(outboxes));
  JsonArray workers;
  for (const WorkerStats& ws : stats.workers) {
    JsonObject w;
    w["worker"] = JsonValue(static_cast<double>(ws.worker));
    w["queue_depth"] = JsonValue(static_cast<double>(ws.queue_depth));
    w["pooled_sessions"] = JsonValue(static_cast<double>(ws.pooled_sessions));
    w["stolen"] = JsonValue(static_cast<double>(ws.stolen));
    w["deadline_shed"] = JsonValue(static_cast<double>(ws.deadline_shed));
    w["timed_out_mid_solve"] =
        JsonValue(static_cast<double>(ws.timed_out_mid_solve));
    w["cancelled"] = JsonValue(static_cast<double>(ws.cancelled));
    w["engine"] = engine_stats_to_json_value(ws.engine);
    workers.push_back(JsonValue(std::move(w)));
  }
  root["workers"] = JsonValue(std::move(workers));
  return JsonValue(std::move(root));
}

JsonValue runtime_config_to_json_value(const RuntimeConfig& config) {
  JsonObject o;
  o["max_in_flight"] = JsonValue(static_cast<double>(
      config.max_in_flight.load(std::memory_order_relaxed)));
  o["requests_per_second"] = JsonValue(config.requests_per_second());
  o["burst"] = JsonValue(config.burst());
  o["default_deadline_ms"] = JsonValue(static_cast<double>(
      config.default_deadline_ms.load(std::memory_order_relaxed)));
  o["queue_high_water"] = JsonValue(static_cast<double>(
      config.queue_high_water.load(std::memory_order_relaxed)));
  o["write_deadline_ms"] = JsonValue(static_cast<double>(
      config.write_deadline_ms.load(std::memory_order_relaxed)));
  return JsonValue(std::move(o));
}

JsonValue apply_set_config(const JsonValue& doc, RuntimeConfig& config,
                           std::string& description) {
  const JsonObject& root = doc.as_object();
  JsonObject applied;
  const auto numeric = [&root](const std::string& key) {
    const JsonValue& v = root.at(key);
    if (!v.is_number() || v.as_number() < 0.0) {
      throw ModelError("set_config: " + key +
                       " must be a non-negative number");
    }
    return v.as_number();
  };
  const auto note = [&](const std::string& key, double value) {
    applied[key] = JsonValue(value);
    if (!description.empty()) description += ", ";
    description += key + "=" + io::write_json_compact(JsonValue(value));
  };
  for (const auto& [key, value] : root.entries()) {
    (void)value;
    if (key == "kind" || key == "id" || key == "schema_version") continue;
    if (key == "max_in_flight") {
      const double v = numeric(key);
      config.max_in_flight.store(static_cast<std::uint64_t>(v),
                                 std::memory_order_relaxed);
      note(key, v);
    } else if (key == "requests_per_second") {
      const double v = numeric(key);
      config.set_requests_per_second(v);
      note(key, v);
    } else if (key == "burst") {
      const double v = numeric(key);
      config.set_burst(v);
      note(key, v);
    } else if (key == "default_deadline_ms") {
      const double v = numeric(key);
      config.default_deadline_ms.store(static_cast<std::uint64_t>(v),
                                       std::memory_order_relaxed);
      note(key, v);
    } else if (key == "queue_high_water") {
      const double v = numeric(key);
      config.queue_high_water.store(static_cast<std::uint64_t>(v),
                                    std::memory_order_relaxed);
      note(key, v);
    } else if (key == "write_deadline_ms") {
      const double v = numeric(key);
      config.write_deadline_ms.store(static_cast<std::int64_t>(v),
                                     std::memory_order_relaxed);
      note(key, v);
    } else {
      throw ModelError("set_config: unknown key '" + key + "'");
    }
  }
  JsonObject result;
  result["applied"] = JsonValue(std::move(applied));
  result["config"] = runtime_config_to_json_value(config);
  return JsonValue(std::move(result));
}

namespace {

void metric_header(std::string& out, const char* name, const char* type,
                   const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// One sample line. Locale-proof float formatting: %.17g round-trips and
/// never emits a locale decimal comma via the "C"-locale snprintf.
void metric_line(std::string& out, const char* name, const std::string& labels,
                 double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += buf;
  out += '\n';
}

void counter(std::string& out, const char* name, const char* help,
             double value) {
  metric_header(out, name, "counter", help);
  metric_line(out, name, std::string(), value);
}

void gauge(std::string& out, const char* name, const char* help,
           double value) {
  metric_header(out, name, "gauge", help);
  metric_line(out, name, std::string(), value);
}

}  // namespace

std::string metrics_exposition(const ServiceStats& stats,
                               const telemetry::ServiceTelemetry* telemetry,
                               const telemetry::StructureCache* cache) {
  std::string out;
  out.reserve(4096);
  counter(out, "bbs_requests_total",
          "Requests executed by the daemon engines.",
          static_cast<double>(stats.requests));
  counter(out, "bbs_requests_ok_total", "Requests answered status=ok.",
          static_cast<double>(stats.ok));
  counter(out, "bbs_requests_infeasible_total",
          "Requests answered status=infeasible.",
          static_cast<double>(stats.infeasible));
  counter(out, "bbs_requests_errors_total",
          "Requests answered status=error.",
          static_cast<double>(stats.errors));
  counter(out, "bbs_warm_hits_total",
          "Requests served from an already warm pooled session.",
          static_cast<double>(stats.warm_hits));
  counter(out, "bbs_symbolic_factorisations_total",
          "Symbolic KKT factorisations computed from scratch.",
          static_cast<double>(stats.symbolic_factorisations));
  counter(out, "bbs_recovered_solves_total",
          "Solves rescued by the IPM recovery ladder.",
          static_cast<double>(stats.recovered_solves));
  counter(out, "bbs_prewarmed_sessions_total",
          "Sessions reconstructed at startup from the structure cache.",
          static_cast<double>(stats.prewarmed_sessions));
  counter(out, "bbs_stolen_total", "Tasks executed by a non-affine worker.",
          static_cast<double>(stats.stolen));
  counter(out, "bbs_deadline_shed_total",
          "Tasks shed in the queue after their deadline expired.",
          static_cast<double>(stats.deadline_shed));
  counter(out, "bbs_timed_out_mid_solve_total",
          "Tasks whose deadline expired mid-solve.",
          static_cast<double>(stats.timed_out_mid_solve));
  counter(out, "bbs_cancelled_total", "Tasks abandoned by cancellation.",
          static_cast<double>(stats.cancelled));
  counter(out, "bbs_connections_accepted_total",
          "Client connections accepted by the socket transport.",
          static_cast<double>(stats.connections_accepted));
  counter(out, "bbs_accept_failures_total",
          "Transient accept() failures (fd or memory exhaustion).",
          static_cast<double>(stats.accept_failures));
  counter(out, "bbs_slow_client_disconnects_total",
          "Connections dropped because their outbox stayed full past the "
          "write deadline.",
          static_cast<double>(stats.slow_client_disconnects));
  counter(out, "bbs_quota_rejections_total",
          "Request lines rejected over per-connection quota.",
          static_cast<double>(stats.quota_rejections));
  counter(out, "bbs_overload_rejections_total",
          "Request lines rejected at the queue high-water mark.",
          static_cast<double>(stats.overload_rejections));
  gauge(out, "bbs_queue_depth", "Queued tasks across all workers.",
        static_cast<double>(stats.queue_depth));
  gauge(out, "bbs_workers", "Worker threads (engines).",
        static_cast<double>(stats.workers.size()));

  if (cache != nullptr) {
    const telemetry::StructureCacheStats cs = cache->stats();
    gauge(out, "bbs_cache_entries", "Structure-cache entries in memory.",
          static_cast<double>(cache->size()));
    counter(out, "bbs_cache_entries_loaded_total",
            "Cache entries loaded from disk at startup.",
            static_cast<double>(cs.entries_loaded));
    counter(out, "bbs_cache_load_errors_total",
            "Corrupt or stale cache files skipped at load.",
            static_cast<double>(cs.load_errors));
    counter(out, "bbs_cache_saves_total", "Cache entries written to disk.",
            static_cast<double>(cs.saves));
    counter(out, "bbs_cache_save_errors_total",
            "Cache writes dropped or failed.",
            static_cast<double>(cs.save_errors));
    counter(out, "bbs_cache_prewarm_errors_total",
            "Loaded entries that failed session reconstruction.",
            static_cast<double>(cs.prewarm_errors));
    counter(out, "bbs_cache_lookup_hits_total", "Cache lookup hits.",
            static_cast<double>(cs.lookup_hits));
    counter(out, "bbs_cache_lookup_misses_total", "Cache lookup misses.",
            static_cast<double>(cs.lookup_misses));
    counter(out, "bbs_cache_evictions_total",
            "Cache files removed by the LRU-by-mtime disk GC.",
            static_cast<double>(cs.evictions));
  }

  if (telemetry != nullptr) {
    // Native Prometheus histograms: the 106 log-linear buckets coarsened
    // to octave granularity — one cumulative `le` edge per power of two
    // (28 lines per series incl. the underflow edge and +Inf), fine enough
    // for latency SLOs while the full kind×stage matrix stays a cheap
    // scrape. The edges are a fixed function of the histogram layout, so
    // every scrape sees identical bucket boundaries.
    using Histogram = telemetry::LatencyHistogram;
    metric_header(out, "bbs_request_latency_ms", "histogram",
                  "Request latency by kind and stage (milliseconds).");
    std::vector<std::pair<std::string, double>> max_series;
    for (int k = 0; k < telemetry::kNumRequestKinds; ++k) {
      const auto kind = static_cast<telemetry::RequestKind>(k);
      for (int s = 0; s < telemetry::kNumStages; ++s) {
        const auto stage = static_cast<telemetry::Stage>(s);
        const Histogram::Snapshot snap =
            telemetry->histogram(kind, stage).snapshot();
        if (snap.count == 0) continue;
        const std::string base = std::string("kind=\"") +
                                 telemetry::to_string(kind) + "\",stage=\"" +
                                 telemetry::to_string(stage) + "\"";
        const auto bucket_line = [&](double upper_ms,
                                     std::uint64_t cumulative) {
          char le[32];
          std::snprintf(le, sizeof(le), "%.17g", upper_ms);
          metric_line(out, "bbs_request_latency_ms_bucket",
                      base + ",le=\"" + le + "\"",
                      static_cast<double>(cumulative));
        };
        std::uint64_t cumulative = snap.buckets[0];
        bucket_line(Histogram::bucket_upper_ms(0), cumulative);
        for (int octave = 0; octave < Histogram::kOctaves; ++octave) {
          const int first = 1 + octave * Histogram::kSubBuckets;
          for (int sub = 0; sub < Histogram::kSubBuckets; ++sub) {
            cumulative += snap.buckets[static_cast<std::size_t>(first + sub)];
          }
          bucket_line(
              Histogram::bucket_upper_ms(first + Histogram::kSubBuckets - 1),
              cumulative);
        }
        cumulative += snap.buckets[Histogram::kBuckets - 1];
        metric_line(out, "bbs_request_latency_ms_bucket",
                    base + ",le=\"+Inf\"", static_cast<double>(cumulative));
        metric_line(out, "bbs_request_latency_ms_sum", base, snap.sum_ms);
        metric_line(out, "bbs_request_latency_ms_count", base,
                    static_cast<double>(snap.count));
        max_series.emplace_back(base, snap.max_ms);
      }
    }
    // Max is not a histogram suffix, so it lives in its own gauge family
    // (renamed from bbs_request_latency_ms_max, which would collide with
    // the histogram's reserved suffixes).
    metric_header(out, "bbs_request_latency_max_ms", "gauge",
                  "Largest latency observed by kind and stage "
                  "(milliseconds).");
    for (const auto& [labels, max_ms] : max_series) {
      metric_line(out, "bbs_request_latency_max_ms", labels, max_ms);
    }

    metric_header(out, "bbs_structure_requests_total", "counter",
                  "Requests per structure hash (hottest rows).");
    metric_header(out, "bbs_structure_solves_total", "counter",
                  "Solves per structure hash (hottest rows).");
    metric_header(out, "bbs_structure_ipm_iterations_total", "counter",
                  "IPM iterations per structure hash (hottest rows).");
    // The table is already bounded (max_structures); cap the exposition at
    // the hottest rows so one scrape stays small even at the bound.
    constexpr std::size_t kMaxRows = 32;
    std::size_t emitted = 0;
    for (const telemetry::StructureRow& row : telemetry->structure_rows()) {
      if (emitted++ == kMaxRows) break;
      const std::string labels =
          "structure=\"" + hex64(row.key_hash) + "\"";
      metric_line(out, "bbs_structure_requests_total", labels,
                  static_cast<double>(row.requests));
      metric_line(out, "bbs_structure_solves_total", labels,
                  static_cast<double>(row.solves));
      metric_line(out, "bbs_structure_ipm_iterations_total", labels,
                  static_cast<double>(row.ipm_iterations));
    }
    counter(out, "bbs_structure_table_evictions_total",
            "Structure rows evicted from the bounded telemetry table.",
            static_cast<double>(telemetry->structure_evictions()));
  }
  return out;
}

JsonlSession::JsonlSession(Dispatcher& dispatcher, Sink sink,
                           SessionOptions options)
    : dispatcher_(dispatcher),
      sink_(std::move(sink)),
      options_(std::move(options)),
      cancel_token_(std::make_shared<solver::CancelToken>()) {}

JsonlSession::~JsonlSession() { finish(); }

void JsonlSession::cancel_pending() { cancel_token_->cancel(); }

void JsonlSession::submit_line(const std::string& line) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;
  const std::uint64_t index = submitted_++;

  // One error-response path: every rejection of this line (parse, quota,
  // overload, shutdown) still yields exactly one response line at its
  // position, with a machine-readable error_code.
  const auto reject = [this, index](
                          std::string id, std::string kind,
                          api::ErrorCode code, std::string message,
                          bool quota, bool overload,
                          std::shared_ptr<telemetry::Trace> trace = nullptr) {
    api::Response r;
    r.id = std::move(id);
    r.kind = std::move(kind);
    r.status = api::ResponseStatus::kError;
    r.error = std::move(message);
    r.error_code = code;
    Entry entry;
    entry.is_quota_rejection = quota;
    entry.is_overload_rejection = overload;
    entry.status = r.status;
    if (trace != nullptr) {
      // A rejected traced request still closes its trace: the rejection is
      // exactly the kind of terminal event worth retrieving later.
      r.diagnostics.trace_id = trace->id();
      entry.trace_error_code = api::to_string(code);
      entry.trace = std::move(trace);
    }
    entry.line = io::write_json_compact(io::response_to_json_value(r));
    deliver(index, std::move(entry));
  };

  try {
    const JsonValue doc = io::parse_json(line);
    if (const auto control = io::control_kind(doc)) {
      if (*control == io::ControlKind::kSetConfig) {
        // Applied at *submit* time — the new limits govern every later
        // line immediately — while the acknowledgement still emits at
        // this line's position like any other response.
        if (!options_.runtime_config) {
          throw ModelError(
              "set_config is not supported on this connection (no runtime "
              "config attached)");
        }
        std::string description;
        JsonValue result =
            apply_set_config(doc, *options_.runtime_config, description);
        if (options_.on_config_change && !description.empty()) {
          options_.on_config_change(description);
        }
        Entry entry;
        entry.status = api::ResponseStatus::kOk;
        entry.line = io::write_json_compact(io::control_response_envelope(
            io::ControlKind::kSetConfig, io::control_id(doc),
            std::move(result)));
        deliver(index, std::move(entry));
        return;
      }
      if (*control == io::ControlKind::kTrace &&
          options_.trace_ring == nullptr) {
        throw ModelError(
            "trace is not supported on this connection (no trace ring "
            "attached)");
      }
      // Stats, metrics and trace resolve at the emission frontier (after
      // every earlier line of this connection has been answered), so the
      // snapshot they report is causally consistent with the stream
      // before them.
      Entry entry;
      entry.is_stats = *control == io::ControlKind::kStats;
      entry.is_metrics = *control == io::ControlKind::kMetrics;
      entry.is_trace = *control == io::ControlKind::kTrace;
      if (entry.is_trace) {
        // Parsed now so a malformed filter is a parse error at this
        // line's position, not a failure at the frontier.
        entry.trace_filter = trace_filter_from_json(doc);
      }
      entry.id = io::control_id(doc);
      entry.status = api::ResponseStatus::kOk;
      deliver(index, std::move(entry));
      return;
    }
    api::Request request = io::request_from_json_value(doc);
    // Captured for the rejection paths below: submit() consumes the
    // request without running it when the dispatcher is stopping.
    std::string id = request.id;
    std::string kind = request.kind();
    // A traced request allocates its Trace at accept — the first stamped
    // hop — but only when a ring exists to publish into; without one the
    // request solves normally and the flag is a no-op.
    std::shared_ptr<telemetry::Trace> trace;
    if (request.options.trace && options_.trace_ring != nullptr) {
      trace = std::make_shared<telemetry::Trace>(telemetry::Trace::next_id(),
                                                 kind);
      trace->add_event("accept");
    }
    if (std::string denial = check_quota(); !denial.empty()) {
      // Over quota: answered immediately with a structured error instead
      // of being queued — the shared worker pool never sees the request.
      if (options_.on_quota_rejection) options_.on_quota_rejection();
      if (trace != nullptr) trace->add_event("quota_rejected", denial);
      reject(std::move(id), std::move(kind), api::ErrorCode::kOverQuota,
             std::move(denial), /*quota=*/true, /*overload=*/false,
             std::move(trace));
      return;
    }
    if (options_.runtime_config) {
      // Overload shedding: when the routed worker's backlog is already at
      // the high-water mark, queueing this request would only add latency
      // to an answer that will likely miss its deadline anyway. Reject it
      // immediately with a *retryable* error — the client backs off and
      // retries once the backlog drains.
      const std::uint64_t high_water =
          options_.runtime_config->queue_high_water.load(
              std::memory_order_relaxed);
      if (high_water > 0 &&
          dispatcher_.queue_depth(dispatcher_.route(request)) >= high_water) {
        if (options_.on_overload_rejection) options_.on_overload_rejection();
        if (trace != nullptr) trace->add_event("overload_rejected");
        reject(std::move(id), std::move(kind), api::ErrorCode::kOverloaded,
               "service overloaded: worker queue at high-water mark; retry "
               "after backoff",
               /*quota=*/false, /*overload=*/true, std::move(trace));
        return;
      }
      // Requests that carry no deadline of their own inherit the daemon
      // default (0 = none). The budget starts at enqueue, inside
      // Dispatcher::submit.
      const std::uint64_t default_deadline =
          options_.runtime_config->default_deadline_ms.load(
              std::memory_order_relaxed);
      if (request.options.deadline_ms <= 0.0 && default_deadline > 0) {
        request.options.deadline_ms = static_cast<double>(default_deadline);
      }
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) trace->add_event("quota", "ok");
    const telemetry::RequestKind telemetry_kind =
        telemetry::request_kind_from_string(kind);
    const bool accepted = dispatcher_.submit(
        std::move(request),
        [this, index, telemetry_kind, trace](api::Response r) {
          in_flight_.fetch_sub(1, std::memory_order_relaxed);
          Entry entry;
          entry.kind = telemetry_kind;
          entry.status = r.status;
          if (trace != nullptr) {
            if (r.error_code != api::ErrorCode::kNone) {
              entry.trace_error_code = api::to_string(r.error_code);
            }
            entry.trace = trace;
          }
          entry.line = io::write_json_compact(io::response_to_json_value(r));
          deliver(index, std::move(entry));
        },
        cancel_token_, trace);
    if (!accepted) {
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->add_event("shed", "shutdown");
      reject(std::move(id), std::move(kind), api::ErrorCode::kShuttingDown,
             "service is shutting down", /*quota=*/false, /*overload=*/false,
             std::move(trace));
    }
  } catch (const std::exception& e) {
    // Identical to the solve_cli --batch contract: a line that does not
    // parse as a request still yields a response line at its position.
    reject(std::string(), "unknown", api::ErrorCode::kParse, e.what(),
           /*quota=*/false, /*overload=*/false);
  }
}

std::string JsonlSession::check_quota() {
  // With a RuntimeConfig attached, its (hot-reloadable) values override the
  // static per-session options — re-read per line so a set_config on any
  // connection governs the next line of every connection.
  std::size_t max_in_flight = options_.max_in_flight;
  double requests_per_second = options_.requests_per_second;
  double burst_option = options_.burst;
  if (options_.runtime_config) {
    max_in_flight = static_cast<std::size_t>(
        options_.runtime_config->max_in_flight.load(std::memory_order_relaxed));
    requests_per_second = options_.runtime_config->requests_per_second();
    burst_option = options_.runtime_config->burst();
  }
  if (max_in_flight > 0 &&
      in_flight_.load(std::memory_order_relaxed) >= max_in_flight) {
    return "over quota: more than " + std::to_string(max_in_flight) +
           " requests in flight on this connection";
  }
  if (requests_per_second > 0.0) {
    const double burst = burst_option > 0.0
                             ? burst_option
                             : std::max(1.0, requests_per_second);
    const auto now = std::chrono::steady_clock::now();
    if (!bucket_started_) {
      // The bucket starts full: a fresh connection may burst before the
      // steady-state rate applies.
      bucket_started_ = true;
      tokens_ = burst;
      last_refill_ = now;
    }
    const std::chrono::duration<double> elapsed = now - last_refill_;
    last_refill_ = now;
    tokens_ = std::min(burst,
                       tokens_ + elapsed.count() * requests_per_second);
    if (tokens_ < 1.0) {
      return "over quota: rate limit of " +
             std::to_string(requests_per_second) + " requests/s exceeded";
    }
    tokens_ -= 1.0;
  }
  return std::string();
}

void JsonlSession::deliver(std::uint64_t index, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.emplace(index, std::move(entry));
  advance_locked();
  // Notify *while holding the mutex*: the moment finish() observes
  // next_emit_ == submitted_ the caller may destroy this session, so the
  // condition variable must not be touched after the lock is released.
  emitted_cv_.notify_all();
}

void JsonlSession::advance_locked() {
  // Emit the contiguous ready prefix. Holding the mutex across the sink
  // keeps emission strictly serialised; workers completing other lines
  // meanwhile simply queue behind it.
  for (auto it = pending_.find(next_emit_); it != pending_.end();
       it = pending_.find(next_emit_)) {
    Entry entry = std::move(it->second);
    pending_.erase(it);
    ++next_emit_;
    if (entry.is_trace) {
      // Resolved at the frontier like stats/metrics: every earlier line of
      // this connection has been emitted, so its trace (if it completed
      // here) is already in the ring.
      JsonArray traces;
      if (options_.trace_ring != nullptr) {
        for (const std::shared_ptr<const telemetry::Trace>& trace :
             options_.trace_ring->collect(entry.trace_filter)) {
          traces.push_back(trace->to_json_value());
        }
      }
      JsonObject result;
      result["traces"] = JsonValue(std::move(traces));
      if (options_.trace_ring != nullptr) {
        result["recorded"] = JsonValue(
            static_cast<double>(options_.trace_ring->recorded()));
        result["capacity"] = JsonValue(
            static_cast<double>(options_.trace_ring->capacity()));
      }
      if (options_.trace_log != nullptr) {
        const telemetry::TraceLog::Stats ls = options_.trace_log->stats();
        JsonObject log;
        log["path"] = JsonValue(options_.trace_log->path());
        log["slow_ms"] = JsonValue(options_.trace_log->slow_ms());
        log["logged"] = JsonValue(static_cast<double>(ls.logged));
        log["write_errors"] =
            JsonValue(static_cast<double>(ls.write_errors));
        result["log"] = JsonValue(std::move(log));
      }
      const JsonValue envelope = io::control_response_envelope(
          io::ControlKind::kTrace, entry.id, JsonValue(std::move(result)));
      entry.line = io::write_json_compact(envelope);
    } else if (entry.is_stats || entry.is_metrics) {
      ServiceStats stats = dispatcher_.stats();
      // The transport owns its counters (accepts, slow-client disconnects,
      // outbox depths); the hook folds them into the dispatcher snapshot.
      if (options_.stats_hook) options_.stats_hook(stats);
      if (entry.is_metrics) {
        // Prometheus text exposition, JSON-string-wrapped to preserve the
        // one-line-per-response JSONL framing.
        JsonObject result;
        result["content_type"] = JsonValue("text/plain; version=0.0.4");
        result["text"] = JsonValue(metrics_exposition(
            stats, options_.telemetry, options_.structure_cache));
        const JsonValue envelope = io::control_response_envelope(
            io::ControlKind::kMetrics, entry.id, JsonValue(std::move(result)));
        entry.line = io::write_json_compact(envelope);
      } else {
        JsonValue result = service_stats_to_json_value(stats);
        if (options_.telemetry != nullptr) {
          result.as_object()["latency"] =
              latency_to_json_value(*options_.telemetry);
          result.as_object()["structures"] =
              structures_to_json_value(*options_.telemetry);
        }
        if (options_.structure_cache != nullptr) {
          result.as_object()["cache"] =
              cache_stats_to_json_value(*options_.structure_cache);
        }
        if (options_.runtime_config) {
          // The live limits ride along, so a set_config reload is
          // observable in the very next stats snapshot.
          result.as_object()["config"] =
              runtime_config_to_json_value(*options_.runtime_config);
        }
        const JsonValue envelope = io::control_response_envelope(
            io::ControlKind::kStats, entry.id, std::move(result));
        entry.line = io::write_json_compact(envelope);
      }
    }
    if (entry.is_quota_rejection) ++summary_.quota_rejections;
    if (entry.is_overload_rejection) ++summary_.overload_rejections;
    ++summary_.lines;
    switch (entry.status) {
      case api::ResponseStatus::kOk:
        ++summary_.ok;
        break;
      case api::ResponseStatus::kInfeasible:
        ++summary_.infeasible;
        break;
      case api::ResponseStatus::kError:
        ++summary_.errors;
        break;
    }
    if (sink_) {
      // The write stage covers the sink call: a real write-and-flush on
      // stdio connections, the outbox handoff (including any backpressure
      // wait on a full outbox) on socket connections.
      if (options_.telemetry != nullptr || entry.trace != nullptr) {
        const auto start = std::chrono::steady_clock::now();
        sink_(entry.line);
        const double write_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (options_.telemetry != nullptr) {
          options_.telemetry->histogram(entry.kind, telemetry::Stage::kWrite)
              .record(write_ms);
        }
        if (entry.trace != nullptr) entry.trace->add_span("write", write_ms);
      } else {
        sink_(entry.line);
      }
    }
    if (entry.trace != nullptr) {
      // The write span was the last hop: close the trace and publish it.
      // Closing here (not in the dispatcher) keeps wall_ms covering the
      // full pipeline including response emission.
      entry.trace->close(api::to_string(entry.status),
                         std::move(entry.trace_error_code));
      std::shared_ptr<const telemetry::Trace> done = std::move(entry.trace);
      if (options_.trace_ring != nullptr) options_.trace_ring->push(done);
      if (options_.trace_log != nullptr) options_.trace_log->offer(done);
    }
  }
}

StreamSummary JsonlSession::finish() {
  std::unique_lock<std::mutex> lock(mutex_);
  emitted_cv_.wait(lock, [&] { return next_emit_ == submitted_; });
  return summary_;
}

StreamSummary serve_jsonl(Dispatcher& dispatcher, std::istream& in,
                          std::ostream& out) {
  return serve_jsonl(dispatcher, in, out, SessionOptions{});
}

StreamSummary serve_jsonl(Dispatcher& dispatcher, std::istream& in,
                          std::ostream& out, SessionOptions options) {
  JsonlSession session(
      dispatcher,
      [&out](const std::string& line) {
        out << line << '\n';
        out.flush();
      },
      std::move(options));
  std::string line;
  while (std::getline(in, line)) {
    session.submit_line(line);
  }
  return session.finish();
}

}  // namespace bbs::service
