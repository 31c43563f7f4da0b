// servebench_driver: the compiled half of the servebench benchmark.
//
//   servebench_driver gen --workload W --seed N --seconds S [--dump FILE]
//       Generates the workload and prints its fingerprint as JSON; --dump
//       writes the warm-up lines and the first 2000 stream lines to FILE.
//   servebench_driver run --workload W --seed N --seconds S --trace 0|1
//       --serve PATH --run-dir DIR --clients C [--workers N]
//       Runs the workload against a freshly spawned bbs_serve and prints a
//       JSON report as the last stdout line. --trace 1 runs the traced
//       daemon phase plus the in-process replay.
//
// run.py builds and drives this program; see README.md.
#include <signal.h>
#include <sys/prctl.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "answers.hpp"
#include "bbs/io/json.hpp"
#include "driver.hpp"
#include "workloads.hpp"

namespace {

using bbs::io::JsonObject;
using bbs::io::JsonValue;

JsonValue to_json(const std::map<std::string, double>& values) {
  JsonObject o;
  for (const auto& [name, value] : values) o[name] = JsonValue(value);
  return JsonValue(std::move(o));
}

int usage() {
  std::fprintf(stderr,
               "usage: servebench_driver gen|run --workload W --seed N "
               "--seconds S [options]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Ends with run.py, and so takes its bbs_serve child along (which in turn
  // dies with this process).
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  servebench::RunOptions options;
  std::string dump;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--serve") {
      options.serve = value;
    } else if (arg == "--run-dir") {
      options.run_dir = value;
    } else if (arg == "--clients") {
      options.clients = std::stoi(value);
    } else if (arg == "--workers") {
      options.workers = std::stoi(value);
    } else if (arg == "--dump") {
      dump = value;
    } else {
      return usage();
    }
  }

  try {
    const servebench::Workload workload = servebench::make_workload(
        options.workload, options.seed, options.seconds);
    if (mode == "gen") {
      constexpr std::size_t kDumped = 2000;
      if (!dump.empty()) {
        std::ofstream out(dump, std::ios::binary);
        for (const std::uint32_t i : workload.warmup) out << workload.lines[i];
        for (std::size_t k = 0; k < kDumped && k < workload.stream.size();
             ++k) {
          out << workload.lines[workload.stream[k]];
        }
      }
      char fingerprint[17];
      std::snprintf(fingerprint, sizeof fingerprint, "%016" PRIx64,
                    servebench::stream_fingerprint(workload));
      JsonObject o;
      o["fingerprint"] = JsonValue(std::string(fingerprint));
      o["pool"] = JsonValue(static_cast<double>(workload.pool.size()));
      o["stream"] = JsonValue(static_cast<double>(workload.stream.size()));
      o["structures"] = JsonValue(static_cast<double>(workload.keys.size()));
      o["warmup"] = JsonValue(static_cast<double>(workload.warmup.size()));
      std::printf("%s\n", bbs::io::write_json_compact(JsonValue(o)).c_str());
      return 0;
    }
    if (mode != "run" || options.serve.empty()) return usage();

    servebench::References references(workload);
    servebench::RunReport report =
        servebench::run_serve(options, workload, references);
    if (options.trace) {
      servebench::run_replay(
          workload, references, options.seconds * 0.3,
          options.run_dir + "/spans-" + options.workload + ".jsonl", report);
    }
    JsonObject o;
    o["correct"] = JsonValue(report.correct);
    o["attempted"] = JsonValue(static_cast<double>(report.attempted));
    o["failed"] = JsonValue(static_cast<double>(report.failed));
    o["metrics"] = to_json(report.metrics);
    o["details"] = to_json(report.details);
    std::printf("%s\n", bbs::io::write_json_compact(JsonValue(o)).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench_driver: %s\n", e.what());
    return 1;
  }
}
