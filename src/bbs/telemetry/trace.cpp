#include "bbs/telemetry/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>

namespace bbs::telemetry {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64 finaliser: turns a sequential counter into well-spread ids.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

Trace::Trace(std::string id, std::string kind)
    : id_(std::move(id)),
      kind_(std::move(kind)),
      start_(std::chrono::steady_clock::now()) {
  events_.reserve(8);
}

std::string Trace::next_id() {
  // The seed folds in the process start time so ids differ across daemon
  // restarts (a restarted daemon answering {"kind":"trace"} must not alias
  // ids from a prior run's slow log).
  static const std::uint64_t kSeed = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t value =
      mix64(kSeed ^ counter.fetch_add(1, std::memory_order_relaxed));
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return std::string(buffer);
}

double Trace::elapsed_ms() const {
  return ms_between(start_, std::chrono::steady_clock::now());
}

void Trace::add_event(std::string name) {
  TraceEvent event;
  event.name = std::move(name);
  event.t_ms = -1.0;
  add_event(std::move(event));
}

void Trace::add_event(std::string name, std::string detail) {
  TraceEvent event;
  event.name = std::move(name);
  event.detail = std::move(detail);
  event.t_ms = -1.0;
  add_event(std::move(event));
}

void Trace::add_event(TraceEvent event) {
  if (event.t_ms < 0.0) event.t_ms = elapsed_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Trace::add_span(std::string name, double dur_ms,
                     std::vector<std::pair<std::string, double>> attrs) {
  dur_ms = std::max(dur_ms, 0.0);
  TraceEvent event;
  event.name = std::move(name);
  event.dur_ms = dur_ms;
  event.t_ms = std::max(elapsed_ms() - dur_ms, 0.0);
  event.attrs = std::move(attrs);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Trace::close(std::string status, std::string error_code) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  closed_ = true;
  status_ = std::move(status);
  error_code_ = std::move(error_code);
  wall_ms_ = ms_between(start_, std::chrono::steady_clock::now());
}

bool Trace::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

bool Trace::error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_ == "error";
}

double Trace::wall_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_ ? wall_ms_ : ms_between(start_, std::chrono::steady_clock::now());
}

std::string Trace::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

void Trace::ipm_iteration(int iteration, double mu, double primal_residual,
                          double dual_residual, double step) {
  const double now = elapsed_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  if (ipm_events_ >= kMaxIpmEvents) {
    ++ipm_events_dropped_;
    return;
  }
  ++ipm_events_;
  TraceEvent event;
  event.name = "ipm_iteration";
  event.t_ms = now;
  event.attrs = {{"iteration", static_cast<double>(iteration)},
                 {"mu", mu},
                 {"pres", primal_residual},
                 {"dres", dual_residual},
                 {"step", step}};
  events_.push_back(std::move(event));
}

void Trace::ipm_ladder_rung(int attempt) {
  const double now = elapsed_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  TraceEvent event;
  event.name = "ipm_ladder_rung";
  event.t_ms = now;
  event.attrs = {{"attempt", static_cast<double>(attempt)}};
  events_.push_back(std::move(event));
}

io::JsonValue Trace::to_json_value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  io::JsonObject o;
  o["id"] = id_;
  o["kind"] = kind_;
  o["status"] = closed_ ? status_ : std::string("open");
  if (!error_code_.empty()) o["error_code"] = error_code_;
  o["wall_ms"] =
      closed_ ? wall_ms_ : ms_between(start_, std::chrono::steady_clock::now());
  if (ipm_events_dropped_ > 0) {
    o["ipm_events_dropped"] = static_cast<long long>(ipm_events_dropped_);
  }
  io::JsonArray events;
  events.reserve(events_.size());
  for (const TraceEvent& event : events_) {
    io::JsonObject e;
    e["name"] = event.name;
    e["t_ms"] = event.t_ms;
    if (event.dur_ms >= 0.0) e["dur_ms"] = event.dur_ms;
    if (!event.detail.empty()) e["detail"] = event.detail;
    for (const auto& [key, value] : event.attrs) e[key] = value;
    events.emplace_back(std::move(e));
  }
  o["events"] = io::JsonValue(std::move(events));
  return io::JsonValue(std::move(o));
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TraceRing::TraceRing(std::size_t capacity, std::size_t shards)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  shards = std::max<std::size_t>(1, std::min(shards, capacity_));
  shards_.reserve(shards);
  const std::size_t per_shard = (capacity_ + shards - 1) / shards;
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring.reserve(per_shard);
    shards_.push_back(std::move(shard));
  }
}

void TraceRing::push(std::shared_ptr<const Trace> trace) {
  if (trace == nullptr) return;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(seq_mutex_);
    seq = seq_++;
  }
  Shard& shard = *shards_[seq % shards_.size()];
  const std::size_t per_shard =
      (capacity_ + shards_.size() - 1) / shards_.size();
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.ring.size() < per_shard) {
    shard.ring.emplace_back(seq, std::move(trace));
  } else {
    shard.ring[shard.next] = {seq, std::move(trace)};
    shard.next = (shard.next + 1) % per_shard;
  }
}

std::vector<std::shared_ptr<const Trace>> TraceRing::collect(
    const TraceFilter& filter) const {
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const Trace>>> matches;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [seq, trace] : shard->ring) {
      if (trace == nullptr) continue;
      if (!filter.id.empty() && trace->id() != filter.id) continue;
      if (!filter.kind.empty() && trace->kind() != filter.kind) continue;
      if (filter.errors_only && !trace->error()) continue;
      if (filter.min_duration_ms > 0.0 &&
          trace->wall_ms() < filter.min_duration_ms) {
        continue;
      }
      matches.emplace_back(seq, trace);
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const std::size_t limit =
      filter.limit == 0 ? matches.size() : filter.limit;
  if (matches.size() > limit) matches.resize(limit);
  std::vector<std::shared_ptr<const Trace>> result;
  result.reserve(matches.size());
  for (auto& [seq, trace] : matches) result.push_back(std::move(trace));
  return result;
}

std::uint64_t TraceRing::recorded() const {
  std::lock_guard<std::mutex> lock(seq_mutex_);
  return seq_;
}

// ---------------------------------------------------------------------------
// TraceLog
// ---------------------------------------------------------------------------

TraceLog::TraceLog(std::string path, double slow_ms)
    : path_(std::move(path)), slow_ms_(slow_ms) {
  writer_ = std::thread([this] { writer_loop(); });
}

TraceLog::~TraceLog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_writer_.notify_all();
  if (writer_.joinable()) writer_.join();
}

bool TraceLog::offer(const std::shared_ptr<const Trace>& trace) {
  if (trace == nullptr) return false;
  const bool slow = slow_ms_ > 0.0 && trace->wall_ms() >= slow_ms_;
  if (!slow && !trace->error()) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(trace);
  }
  wake_writer_.notify_one();
  return true;
}

void TraceLog::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  write_done_.wait(lock, [this] { return queue_.empty() && !writing_; });
}

TraceLog::Stats TraceLog::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TraceLog::writer_loop() {
  for (;;) {
    std::shared_ptr<const Trace> trace;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_writer_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      trace = std::move(queue_.front());
      queue_.pop_front();
      writing_ = true;
    }

    const std::string line =
        io::write_json_compact(trace->to_json_value()) + "\n";
    bool ok = false;
    if (std::FILE* file = std::fopen(path_.c_str(), "ae")) {
      ok = std::fwrite(line.data(), 1, line.size(), file) == line.size();
      if (std::fclose(file) != 0) ok = false;
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      writing_ = false;
      if (ok) {
        ++stats_.logged;
      } else {
        ++stats_.write_errors;
      }
    }
    write_done_.notify_all();
  }
}

}  // namespace bbs::telemetry
