// Per-request tracing: the causal "why was this request slow" layer on top
// of the aggregate histograms in service_telemetry.
//
// A traced request (api::RequestOptions::trace) owns one telemetry::Trace —
// an append-only list of timestamped events stamped at every pipeline hop:
// accept, the quota decision, enqueue (routed worker + queue depth at entry),
// dequeue/steal/shed, the solve (engine pool hit/miss provenance), optional
// per-IPM-iteration introspection (Trace implements solver::IpmTraceSink),
// and the outbox handoff/write. Events record milliseconds relative to trace
// creation, so a trace is self-contained and clock-portable.
//
// Completed traces land in a TraceRing — a lock-sharded ring buffer served
// by the daemon's {"kind":"trace"} control line — and, when they exceed a
// slow threshold or end in error, are additionally appended as JSONL to a
// TraceLog file by a write-behind thread (post-mortem "slowest requests
// last hour" without a scraper).
//
// Cost model: everything here is opt-in per request. An untraced request
// carries a null shared_ptr and no code path below allocates or locks.
// Traced requests pay one small allocation per event under a per-trace
// mutex (hops are sequential but cross-thread, so the mutex is uncontended
// in practice).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bbs/io/json.hpp"
#include "bbs/solver/ipm_solver.hpp"

namespace bbs::telemetry {

/// One hop of a trace. `dur_ms < 0` marks an instant event; `>= 0` a span
/// that *ended* at `t_ms + dur_ms`. Numeric attributes ride in `attrs`
/// (serialised as JSON number fields), a free-form label in `detail`.
struct TraceEvent {
  std::string name;
  double t_ms = 0.0;
  double dur_ms = -1.0;
  std::string detail;
  std::vector<std::pair<std::string, double>> attrs;
};

class Trace final : public solver::IpmTraceSink {
 public:
  Trace(std::string id, std::string kind);

  /// Process-unique id: a monotone counter mixed with a per-process seed,
  /// rendered as 16 hex digits.
  static std::string next_id();

  const std::string& id() const { return id_; }
  const std::string& kind() const { return kind_; }

  /// Milliseconds since the trace was created.
  double elapsed_ms() const;

  void add_event(std::string name);
  void add_event(std::string name, std::string detail);
  /// Full-control variant; a negative t_ms is auto-stamped with now.
  void add_event(TraceEvent event);
  /// Records a span of `dur_ms` that ends now (t_ms = now - dur_ms).
  void add_span(std::string name, double dur_ms,
                std::vector<std::pair<std::string, double>> attrs = {});

  /// Terminal: stamps wall_ms and the final status ("ok", "infeasible",
  /// "error", ...). Idempotent — the first close wins.
  void close(std::string status, std::string error_code = std::string());

  bool closed() const;
  bool error() const;
  double wall_ms() const;
  std::string status() const;

  /// solver::IpmTraceSink — per-iteration and recovery-ladder events from
  /// inside the IPM. Iteration events are capped (kMaxIpmEvents) so a
  /// pathological solve cannot balloon a trace.
  void ipm_iteration(int iteration, double mu, double primal_residual,
                     double dual_residual, double step) override;
  void ipm_ladder_rung(int attempt) override;

  io::JsonValue to_json_value() const;

  static constexpr std::uint32_t kMaxIpmEvents = 512;

 private:
  const std::string id_;
  const std::string kind_;
  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::string status_;
  std::string error_code_;
  bool closed_ = false;
  double wall_ms_ = 0.0;
  std::uint32_t ipm_events_ = 0;
  std::uint32_t ipm_events_dropped_ = 0;
};

/// Filter for TraceRing::collect. Empty string / zero fields match
/// everything; `limit` bounds the (newest-first) result.
struct TraceFilter {
  std::string id;
  std::string kind;
  double min_duration_ms = 0.0;
  bool errors_only = false;
  std::size_t limit = 32;
};

/// Lock-sharded ring buffer of completed traces. push() touches one shard;
/// collect() walks all shards and returns matches newest-first.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 256, std::size_t shards = 4);

  void push(std::shared_ptr<const Trace> trace);
  std::vector<std::shared_ptr<const Trace>> collect(
      const TraceFilter& filter) const;

  std::uint64_t recorded() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<std::pair<std::uint64_t, std::shared_ptr<const Trace>>> ring;
    std::size_t next = 0;
  };

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex seq_mutex_;
  std::uint64_t seq_ = 0;
};

/// Write-behind JSONL logger for slow/error traces. offer() enqueues a
/// trace that qualifies (wall_ms >= slow_ms when slow_ms > 0, or any trace
/// that ended in error) and returns immediately; a background thread
/// appends one compact JSON document per line. flush() blocks until the
/// file is caught up; the destructor drains.
class TraceLog {
 public:
  explicit TraceLog(std::string path, double slow_ms = 0.0);
  ~TraceLog();

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Enqueues the trace if it qualifies; returns whether it did.
  bool offer(const std::shared_ptr<const Trace>& trace);
  void flush();

  struct Stats {
    std::uint64_t logged = 0;
    std::uint64_t write_errors = 0;
  };
  Stats stats() const;

  const std::string& path() const { return path_; }
  double slow_ms() const { return slow_ms_; }

 private:
  void writer_loop();

  const std::string path_;
  const double slow_ms_;

  mutable std::mutex mutex_;
  std::condition_variable wake_writer_;
  std::condition_variable write_done_;
  std::deque<std::shared_ptr<const Trace>> queue_;
  bool writing_ = false;
  bool stopping_ = false;
  Stats stats_;
  std::thread writer_;
};

}  // namespace bbs::telemetry
