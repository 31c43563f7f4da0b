// Shared pieces of the servebench driver: run options, the metric record a
// run prints, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

struct Workload;
class References;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the bbs_serve binary.
  std::string serve;
  /// Directory for the socket, daemon log and span dump.
  std::string run_dir = ".";
  int clients = 1;
  int workers = 4;
};

/// What one run reports: metrics by name plus free-form details for the
/// result file.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> metrics;
  std::map<std::string, double> details;
};

/// End-to-end (trace off) or daemon-side traced run of one workload
/// against a freshly spawned bbs_serve.
RunReport run_serve(const RunOptions& options, const Workload& workload,
                    References& references);

/// In-process, single-thread replay of the workload through the layers'
/// public functions, for `seconds` of wall time. Adds its metrics to
/// `report`; writes the recorded spans to `spans_path`.
void run_replay(const Workload& workload, References& references,
                double seconds, const std::string& spans_path,
                RunReport& report);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
double percentile(std::vector<double>& values, double q);

double median(std::vector<double> values);

}  // namespace servebench
