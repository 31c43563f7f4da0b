// The daemon side of servebench: spawns bbs_serve, drives it with one
// single-threaded closed-loop client over a few AF_UNIX connections, and
// reads the daemon's counters back from /proc and its control lines.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "answers.hpp"
#include "bbs/io/json.hpp"
#include "driver.hpp"
#include "workloads.hpp"

namespace servebench {

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

namespace {

/// Daemon start-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// A request without a reply after this long counts as failed.
constexpr double kRequestTimeoutS = 10.0;
/// Threads of the cold reference engines.
constexpr int kReferenceThreads = 4;
/// Length of one measured slice, and the share of the host's CPU other
/// guests may steal during a slice that counts.
constexpr double kSliceS = 2.0;
constexpr double kMaxSteal = 0.02;

// --- daemon process ----------------------------------------------------------

class Daemon {
 public:
  Daemon(const RunOptions& options, const std::string& socket_path)
      : socket_path_(socket_path) {
    std::vector<std::string> args = {options.serve, "--listen",
                                     "unix:" + socket_path, "--workers",
                                     std::to_string(options.workers)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = options.run_dir + "/daemon.log";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, whatever happens to it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// SIGTERM (graceful drain), SIGKILL after ten seconds; always reaped.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    ::unlink(socket_path_.c_str());
  }

  /// utime + stime in milliseconds.
  double cpu_ms() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 0; i < 13 && fields >> field; ++i) {
      if (i == 11 || i == 12) ticks += std::stod(field);  // utime, stime
    }
    return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// VmHWM (peak resident set) in MiB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One request/response exchange on a fresh connection (control lines).
std::string exchange(const std::string& socket_path, const std::string& line) {
  const int fd = connect_unix(socket_path);
  if (fd < 0) return {};
  const timeval timeout{static_cast<time_t>(kRequestTimeoutS), 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::string buf;
  if (send_all(fd, line)) {
    char chunk[65536];
    while (buf.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return buf.substr(0, buf.find('\n'));
}

// --- closed-loop client ------------------------------------------------------

struct Conn {
  int fd = -1;
  std::string buf;
  std::uint32_t index = 0;
  std::string expect_id;
  Clock::time_point sent;
  bool busy = false;
};

struct Sample {
  std::uint32_t index = 0;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  bool ok = false;
};

struct Segment {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;
  std::uint64_t ok = 0;
};

/// Slices of the measured window pooled together.
struct Window {
  std::vector<Sample> samples;
  double seconds = 0.0;
  double ok = 0.0;
  double cpu_ms = 0.0;  ///< daemon utime + stime

  void add(const Segment& seg, double daemon_cpu_ms) {
    samples.insert(samples.end(), seg.samples.begin(), seg.samples.end());
    seconds += seg.elapsed_s;
    ok += static_cast<double>(seg.ok);
    cpu_ms += daemon_cpu_ms;
  }
};

class Client {
 public:
  Client(const RunOptions& options, std::string socket_path)
      : options_(options), socket_path_(std::move(socket_path)) {}
  ~Client() { close_all(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects `options.clients` connections; the first attempt retries
  /// until the daemon listens (or `ready_timeout_s` passes).
  bool connect(Daemon& daemon, double ready_timeout_s) {
    const auto start = Clock::now();
    int fd = -1;
    while ((fd = connect_unix(socket_path_)) < 0) {
      if (!daemon.alive() || seconds_since(start) > ready_timeout_s) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    conns_.resize(static_cast<std::size_t>(options_.clients));
    conns_[0].fd = fd;
    for (std::size_t c = 1; c < conns_.size(); ++c) {
      conns_[c].fd = connect_unix(socket_path_);
      if (conns_[c].fd < 0) return false;
    }
    return true;
  }

  void close_all() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    conns_.clear();
  }

  /// Closed loop: every connection keeps exactly one request outstanding.
  /// `next` supplies pool indices; sending stops when it runs dry or after
  /// `duration_s` (when > 0), and the outstanding replies are drained.
  Segment run(const std::vector<std::string>& lines,
              const std::function<bool(std::uint32_t&)>& next,
              double duration_s, Checker& checker) {
    Segment seg;
    const auto start = Clock::now();
    const auto sending = [&] {
      return duration_s <= 0.0 || seconds_since(start) < duration_s;
    };
    for (Conn& c : conns_) {
      std::uint32_t index = 0;
      if (next(index)) send(c, lines, index);
    }
    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    char chunk[65536];
    for (;;) {
      fds.clear();
      owners.clear();
      auto wait = std::chrono::milliseconds(1000);
      const auto now = Clock::now();
      for (Conn& c : conns_) {
        if (!c.busy) continue;
        fds.push_back({c.fd, POLLIN, 0});
        owners.push_back(&c);
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                c.sent + std::chrono::duration<double>(kRequestTimeoutS) -
                now);
        wait = std::min(wait, std::max(left, std::chrono::milliseconds(0)));
      }
      if (fds.empty()) break;
      ::poll(fds.data(), fds.size(), static_cast<int>(wait.count()) + 1);
      for (std::size_t k = 0; k < fds.size(); ++k) {
        Conn& c = *owners[k];
        if (fds[k].revents == 0) continue;
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          checker.fail(Failure::kError);  // connection lost mid-request
          seg.samples.push_back({c.index, INFINITY, 0.0, 0.0, false});
          reconnect(c);
          std::uint32_t index = 0;
          if (sending() && next(index)) send(c, lines, index);
          continue;
        }
        c.buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl = 0;
        while (c.busy && (nl = c.buf.find('\n')) != std::string::npos) {
          const auto done = Clock::now();
          Sample s;
          s.index = c.index;
          s.latency_ms =
              std::chrono::duration<double, std::milli>(done - c.sent).count();
          Answer answer;
          const bool parsed =
              scan_answer(std::string_view(c.buf.data(), nl), answer);
          c.buf.erase(0, nl + 1);
          c.busy = false;
          Failure failure = Failure::kMismatch;
          if (parsed && answer.id == c.expect_id) {
            failure = checker.check(c.index, answer);
          } else {
            checker.fail(failure);
          }
          s.ok = failure == Failure::kNone;
          s.queue_ms = answer.queue_ms;
          s.solve_ms = answer.solve_ms;
          seg.ok += s.ok ? 1 : 0;
          seg.samples.push_back(s);
          std::uint32_t index = 0;
          if (sending() && next(index)) send(c, lines, index);
        }
      }
      const auto after = Clock::now();
      for (Conn& c : conns_) {
        if (c.busy && std::chrono::duration<double>(after - c.sent).count() >
                          kRequestTimeoutS) {
          checker.fail(Failure::kTimeout);
          seg.samples.push_back({c.index, INFINITY, 0.0, 0.0, false});
          reconnect(c);
          std::uint32_t index = 0;
          if (sending() && next(index)) send(c, lines, index);
        }
      }
    }
    seg.elapsed_s = seconds_since(start);
    return seg;
  }

 private:
  void send(Conn& c, const std::vector<std::string>& lines,
            std::uint32_t index) {
    c.index = index;
    c.expect_id = 'q';
    c.expect_id += std::to_string(index);
    c.sent = Clock::now();
    c.busy = true;
    if (!send_all(c.fd, lines[index])) {
      // Left busy: the timeout path counts it and reconnects.
      c.sent -= std::chrono::hours(1);
    }
  }

  void reconnect(Conn& c) {
    ::close(c.fd);
    c.fd = connect_unix(socket_path_);
    c.buf.clear();
    c.busy = false;
  }

  const RunOptions& options_;
  std::string socket_path_;
  std::vector<Conn> conns_;
};

// --- stats ------------------------------------------------------------------

/// The counters of a {"kind":"stats"} reply that the per-layer metrics
/// difference over the measured phase.
struct StatsSnapshot {
  double requests = 0, warm_hits = 0, stolen = 0, symbolic = 0;
  double solves = 0, ipm_iterations = 0, warm_started = 0, recovered = 0;
  std::vector<double> worker_requests;
  double write_p99_ms = 0.0;
};

double num(const bbs::io::JsonObject& o, const std::string& key) {
  return o.contains(key) ? o.at(key).as_number() : 0.0;
}

StatsSnapshot read_stats(const std::string& socket_path) {
  StatsSnapshot s;
  const std::string line = exchange(socket_path, "{\"kind\":\"stats\"}\n");
  if (line.empty()) return s;
  const bbs::io::JsonValue doc = bbs::io::parse_json(line);
  const bbs::io::JsonObject& r = doc.as_object().at("result").as_object();
  s.requests = num(r, "requests");
  s.warm_hits = num(r, "warm_hits");
  s.stolen = num(r, "stolen");
  s.symbolic = num(r, "symbolic_factorisations");
  for (const bbs::io::JsonValue& w : r.at("workers").as_array()) {
    const bbs::io::JsonObject& e = w.as_object().at("engine").as_object();
    s.worker_requests.push_back(num(e, "requests"));
    s.solves += num(e, "solves");
    s.ipm_iterations += num(e, "ipm_iterations");
    s.warm_started += num(e, "warm_started_solves");
    s.recovered += num(e, "recovered_solves");
  }
  if (r.contains("latency")) {
    for (const auto& [kind, stages] : r.at("latency").as_object().entries()) {
      const bbs::io::JsonObject& st = stages.as_object();
      if (st.contains("write")) {
        s.write_p99_ms = std::max(
            s.write_p99_ms, num(st.at("write").as_object(), "p99_ms"));
      }
    }
  }
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host-wide steal and total jiffies from /proc/stat: how much CPU the
/// hypervisor gave to other guests while the window ran.
std::pair<double, double> host_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

RunReport run_serve(const RunOptions& options, const Workload& workload,
                    References& references) {
  RunReport report;
  const std::string socket_path =
      options.run_dir + "/d" + std::to_string(::getpid()) + ".sock";

  // Pooled workloads get their references before the timed window;
  // cold_large's distinct stream is checked after it (see README).
  if (!workload.distinct_stream) {
    std::vector<std::uint32_t> all(workload.pool.size());
    for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    references.compute(all, kReferenceThreads);
  } else {
    references.compute(workload.warmup, kReferenceThreads);
  }

  Checker warmup_checker(references);
  Checker checker(references);
  std::size_t cursor = 0;
  const auto next_stream = [&](std::uint32_t& index) {
    index = workload.stream[cursor++ % workload.stream.size()];
    return true;
  };

  // Set-up: spawn -> every structure answered once. Repeated, median taken;
  // the last daemon stays up for the measured phase.
  std::vector<double> setups;
  const int reps = options.trace ? 1 : kSetupReps;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> client;
  for (int rep = 0; rep < reps; ++rep) {
    client.reset();
    daemon.reset();
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(options, socket_path);
    client = std::make_unique<Client>(options, socket_path);
    if (!client->connect(*daemon, 30.0)) {
      throw std::runtime_error("bbs_serve did not start (see " +
                               options.run_dir + "/daemon.log)");
    }
    std::size_t w = 0;
    client->run(
        workload.lines,
        [&](std::uint32_t& index) {
          if (w >= workload.warmup.size()) return false;
          index = workload.warmup[w++];
          return true;
        },
        0.0, warmup_checker);
    setups.push_back(seconds_since(start));
  }

  // Settle: the stream runs untimed for a fifth of the window first, so
  // the sessions work stealing spreads across workers exist before timing
  // starts (without it the first quarter of the window runs ~8% slower).
  client->run(workload.lines, next_stream, options.seconds * 0.2,
              warmup_checker);

  const StatsSnapshot before = read_stats(socket_path);
  const auto steal_before = host_steal_jiffies();
  std::vector<Sample> samples;  // every reply of the measured phase
  double elapsed_s = 0.0;
  Window measured;
  bool gated = false;
  int dirty = 0;
  double untraced_ok = 0, untraced_s = 0, traced_ok = 0, traced_s = 0;
  if (!options.trace) {
    // Two-second slices until `seconds` of them ran while other guests
    // stole at most 2% of the host's CPU, or 1.5 x `seconds` passed. Steal
    // bursts lasting minutes halved serve_warm's throughput on a shared
    // host; gating keeps them out of the figures. With less than a quarter
    // of `seconds` clean, every slice counts (details: gated = 0).
    Window all;
    while (measured.seconds < options.seconds &&
           all.seconds < options.seconds * 1.5) {
      const auto steal0 = host_steal_jiffies();
      const double cpu0 = daemon->cpu_ms();
      const Segment seg =
          client->run(workload.lines, next_stream, kSliceS, checker);
      const double cpu = daemon->cpu_ms() - cpu0;
      const auto steal1 = host_steal_jiffies();
      all.add(seg, cpu);
      if (ratio(steal1.first - steal0.first, steal1.second - steal0.second) <=
          kMaxSteal) {
        measured.add(seg, cpu);
      } else {
        ++dirty;
      }
    }
    gated = measured.seconds >= options.seconds / 4;
    if (!gated) measured = all;
    samples = std::move(all.samples);
    elapsed_s = all.seconds;
  } else {
    // Alternating untraced / traced quarters on one daemon, so drift hits
    // both sides alike.
    for (int q = 0; q < 4; ++q) {
      const bool traced = q % 2 == 1;
      Segment seg =
          client->run(traced ? workload.traced_lines : workload.lines,
                      next_stream, options.seconds / 4.0, checker);
      (traced ? traced_ok : untraced_ok) += static_cast<double>(seg.ok);
      (traced ? traced_s : untraced_s) += seg.elapsed_s;
      elapsed_s += seg.elapsed_s;
      samples.insert(samples.end(), seg.samples.begin(), seg.samples.end());
    }
  }
  const auto steal_after = host_steal_jiffies();
  const StatsSnapshot after = read_stats(socket_path);
  const double peak_rss_mb = daemon->peak_rss_mb();
  std::string traces;
  if (options.trace) {
    traces = exchange(socket_path, "{\"kind\":\"trace\",\"limit\":256}\n");
  }
  client.reset();
  daemon->stop();

  checker.resolve(kReferenceThreads);
  warmup_checker.resolve(kReferenceThreads);
  const Tally& tally = checker.tally();
  report.attempted = tally.checked;
  report.failed = tally.failed;
  report.correct = tally.failed == 0 && warmup_checker.tally().failed == 0;
  const double ok = static_cast<double>(tally.checked - tally.failed);

  auto& m = report.metrics;
  auto& d = report.details;
  if (!options.trace) {
    std::vector<double> latency;
    latency.reserve(measured.samples.size());
    for (const Sample& s : measured.samples) latency.push_back(s.latency_ms);
    const auto replies = static_cast<double>(latency.size());
    m["throughput_rps"] = measured.ok / measured.seconds;
    m["latency_p50_ms"] = percentile(latency, 0.50);
    m["latency_p99_ms"] = percentile(latency, 0.99);
    m["ok_rate"] = ratio(ok, static_cast<double>(tally.checked));
    m["setup_s"] = median(setups);
    m["peak_rss_mb"] = peak_rss_mb;
    m["cpu_ms_per_req"] = measured.cpu_ms / replies;
    d["fail_rate"] = ratio(static_cast<double>(tally.failed),
                           static_cast<double>(tally.checked));
    d["steal_ratio"] =
        ratio(after.stolen - before.stolen, after.requests - before.requests);
    d["ipm_iters_per_solve"] = ratio(after.ipm_iterations - before.ipm_iterations,
                                     after.solves - before.solves);
    d["symbolic_factorisations"] = after.symbolic;
    d["gated"] = gated ? 1.0 : 0.0;
    d["measured_s"] = measured.seconds;
    d["dirty_slices"] = dirty;
    d["latency_samples"] = replies;
    d["latency_samples_beyond_p99"] = std::floor(replies * 0.01);
    d["setup_reps"] = static_cast<double>(setups.size());
    d["setup_s_min"] = *std::min_element(setups.begin(), setups.end());
    d["setup_s_max"] = *std::max_element(setups.begin(), setups.end());
  } else {
    std::vector<double> queue, overhead;
    for (const Sample& s : samples) {
      if (!s.ok || s.queue_ms < 0 || s.solve_ms < 0) continue;
      queue.push_back(s.queue_ms);
      overhead.push_back(s.latency_ms - s.queue_ms - s.solve_ms);
    }
    const double requests = after.requests - before.requests;
    double worker_max = 0.0;
    for (std::size_t k = 0; k < after.worker_requests.size(); ++k) {
      const double mine = after.worker_requests[k] -
                          (k < before.worker_requests.size()
                               ? before.worker_requests[k]
                               : 0.0);
      worker_max = std::max(worker_max, mine);
    }
    const double solves = after.solves - before.solves;
    m["api.pool_hit_ratio"] =
        ratio(after.warm_hits - before.warm_hits, requests);
    m["service.queue_ms_p50"] = percentile(queue, 0.50);
    m["service.queue_ms_p99"] = percentile(queue, 0.99);
    m["service.write_ms_p99"] = after.write_p99_ms;
    m["service.overhead_ms_p50"] = percentile(overhead, 0.50);
    m["service.worker_share_max"] = ratio(worker_max, requests);
    m["service.steal_ratio"] = ratio(after.stolen - before.stolen, requests);
    m["solver.ipm_iters_per_solve"] =
        ratio(after.ipm_iterations - before.ipm_iterations, solves);
    m["solver.warm_start_ratio"] =
        ratio(after.warm_started - before.warm_started, solves);
    m["solver.recovered_ratio"] =
        ratio(after.recovered - before.recovered, solves);
    // Symbolic work over the daemon's life (warm-up included) per distinct
    // structure it was sent.
    std::vector<bool> sent(workload.keys.size(), false);
    for (const std::uint32_t i : workload.warmup) {
      sent[workload.structure_of[i]] = true;
    }
    for (const Sample& s : samples) sent[workload.structure_of[s.index]] = true;
    m["solver.symbolic_per_structure"] =
        ratio(after.symbolic,
              static_cast<double>(std::count(sent.begin(), sent.end(), true)));
    const double untraced_rps = ratio(untraced_ok, untraced_s);
    const double traced_rps = ratio(traced_ok, traced_s);
    m["telemetry.trace_overhead_frac"] = 1.0 - ratio(traced_rps, untraced_rps);
    d["untraced_rps"] = untraced_rps;
    d["traced_rps"] = traced_rps;
    d["daemon_requests"] = requests;
    if (!traces.empty()) {
      const bbs::io::JsonValue doc = bbs::io::parse_json(traces);
      const bbs::io::JsonObject& r = doc.as_object().at("result").as_object();
      d["traces_returned"] =
          static_cast<double>(r.at("traces").as_array().size());
      d["traces_recorded"] = num(r, "recorded");
    }
  }
  d["answer_max_rel_dev"] = tally.max_rel_dev;
  d["min_period_divergent"] = static_cast<double>(tally.divergent);
  d["min_period_max_divergence"] = tally.max_divergence;
  for (int k = 1; k < 5; ++k) {
    d[std::string("failed_") + to_string(static_cast<Failure>(k))] =
        static_cast<double>(tally.by_reason[k]);
  }
  d["warmup_failed"] = static_cast<double>(warmup_checker.tally().failed);
  d["elapsed_s"] = elapsed_s;
  d["host_steal_frac"] = ratio(steal_after.first - steal_before.first,
                               steal_after.second - steal_before.second);
  d["distinct_structures"] = static_cast<double>(workload.keys.size());
  return report;
}

}  // namespace servebench
