// Answer checking: a one-pass scanner that pulls the answer-bearing fields
// out of a response line, and the comparison against a cold-engine
// reference.
//
// The scanner is the benchmark's own (not the library's JSON parser), so
// the client's per-response cost does not change when the program's parser
// does. It reads keys in document order and ignores nesting, which is
// enough for the response schema of bbs/io/api_io.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

struct Answer {
  /// First "kind" of the line: the request kind.
  std::string kind;
  std::string id;
  /// First "status" of the line: the response status (ok/infeasible/error).
  std::string status;
  bool has_error = false;
  /// Some mapping reported solver status "optimal" with "verified":false.
  bool unverified = false;
  /// Discrete answer fields in order: mapping statuses, found/feasible
  /// flags, verified flags.
  std::string discrete;
  /// Numeric answer fields in order: objective_continuous,
  /// total_budget_continuous, min_period "period".
  std::vector<double> numbers;
  /// Diagnostics (-1 when absent).
  double queue_ms = -1.0;
  double solve_ms = -1.0;
};

/// Scans one response line. Returns false when the line is not a JSON
/// object.
bool scan_answer(std::string_view line, Answer& out);

/// Why a response counts as failed (kNone = verified and matching).
enum class Failure { kNone, kError, kUnverified, kMismatch, kTimeout };
const char* to_string(Failure failure);

/// Relative tolerance of numeric answer fields against the reference. The
/// IPM stops at feas_tol = gap_tol = 1e-6 and the period bisection at
/// rel_tol = 1e-4; 1e-3 leaves room for warm-versus-cold differences while
/// still catching a wrong answer.
inline constexpr double kRelTol = 1e-3;

struct Workload;

/// Per-reason failure counts over the responses checked so far.
struct Tally {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::uint64_t by_reason[5] = {0, 0, 0, 0, 0};
  /// Largest relative deviation of a compared numeric field.
  double max_rel_dev = 0.0;
  /// min_period answers whose period/objective differ from the reference
  /// beyond kRelTol (not failures; see check_answer), and the largest gap.
  std::uint64_t divergent = 0;
  double max_divergence = 0.0;

  void add(Failure failure);
};

/// Classifies `got` against the cold-engine `reference`, folding numeric
/// deviations into `tally` (the verdict itself is not added).
Failure check_answer(const Answer& got, const Answer& reference,
                     Tally& tally);

/// Reference answers: each distinct request solved by a cold api::Engine
/// (max_pool_sessions = 0), so no reuse layer is involved.
class References {
 public:
  explicit References(const Workload& workload);

  /// Computes the missing references among `indices` on up to `threads`
  /// threads, one cold engine each.
  void compute(const std::vector<std::uint32_t>& indices, int threads);
  /// The reference of pool entry `index`, computed on first use.
  const Answer& get(std::uint32_t index);
  bool has(std::uint32_t index) const { return done_[index]; }

 private:
  const Workload& workload_;
  std::vector<Answer> answers_;
  std::vector<bool> done_;
};

/// Checks responses against the references: immediately when the
/// reference exists, otherwise after the run (resolve()).
class Checker {
 public:
  explicit Checker(References& references) : references_(references) {}

  /// Returns the verdict, or kNone provisionally for a deferred check.
  Failure check(std::uint32_t index, const Answer& answer);
  void fail(Failure failure) { tally_.add(failure); }
  /// Computes the deferred references on `threads` threads and checks the
  /// stashed answers.
  void resolve(int threads);

  const Tally& tally() const { return tally_; }

 private:
  /// Checks against the (existing) reference; logs the first failures.
  Failure record(std::uint32_t index, const Answer& answer);

  References& references_;
  std::vector<std::pair<std::uint32_t, Answer>> deferred_;
  Tally tally_;
};

}  // namespace servebench
