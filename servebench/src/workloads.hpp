// Seeded request streams of the three servebench workloads.
//
// A workload is a pool of distinct requests plus a send order over it. The
// daemon only ever sees the serialised JSONL lines; the seed stays on the
// benchmark's side. The same (workload, seed, seconds) always yields the
// same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bbs/api/request.hpp"

namespace servebench {

/// splitmix64: a tiny, portable generator, so request streams do not depend
/// on the standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next_u64();
  /// Uniform in [0, 1).
  double uniform();
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi].
  std::int64_t integer(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t state_;
};

struct Workload {
  /// Distinct requests; request i carries id "q<i>".
  std::vector<bbs::api::Request> pool;
  /// Compact JSONL line of each pool entry, newline included.
  std::vector<std::string> lines;
  /// The same lines with "options":{"trace":true}.
  std::vector<std::string> traced_lines;
  /// Pool indices in send order (wrapped around when a run outlasts it).
  std::vector<std::uint32_t> stream;
  /// One pool index per distinct structure key: the warm-up pass.
  std::vector<std::uint32_t> warmup;
  /// Structure id (index into `keys`) of every pool entry.
  std::vector<std::uint32_t> structure_of;
  /// Distinct api::request_structure_key values, in first-seen order.
  std::vector<std::string> keys;
  /// True when every stream entry is a distinct request (cold_large): its
  /// reference answers are computed for the entries actually sent.
  bool distinct_stream = false;
};

/// Builds the named workload. `seconds` sizes the stream so that a run of
/// that length rarely wraps. Throws std::invalid_argument on unknown names.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds);

/// FNV-1a 64 over the bytes of the warm-up lines followed by the stream
/// lines: the fingerprint the self-test compares.
std::uint64_t stream_fingerprint(const Workload& workload);

}  // namespace servebench
