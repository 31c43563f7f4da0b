// Cooperative cancellation for long-running solves.
//
// A CancelToken is shared (via shared_ptr in SolveControl) between the
// owner of a request — a service connection, a batch driver, a test — and
// the IPM loop running on its behalf. The owner flips the flag or arms an
// absolute deadline; the solver polls once per iteration and exits with a
// terminal status (kCancelled / kTimedOut) instead of throwing, so the
// workspace and warm start of the enclosing session stay intact and
// reusable.
//
// Both fields are plain atomics: arming and polling are wait-free, and an
// un-armed token costs the solve one relaxed load per iteration.
#pragma once

#include <atomic>
#include <chrono>
#include <limits>

namespace bbs::solver {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Requests cancellation; sticky until reset().
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms an absolute wall-clock deadline; the solver treats it exactly
  /// like SolveControl::deadline, taking whichever expires first.
  void set_deadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != kNoDeadline;
  }
  Clock::time_point deadline() const {
    return Clock::time_point(
        Clock::duration(deadline_ns_.load(std::memory_order_relaxed)));
  }
  bool expired(Clock::time_point now = Clock::now()) const {
    const Clock::rep armed = deadline_ns_.load(std::memory_order_relaxed);
    return armed != kNoDeadline &&
           now.time_since_epoch().count() >= armed;
  }

  /// Disarms both the flag and the deadline (token reuse across requests).
  void reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }

 private:
  static constexpr Clock::rep kNoDeadline =
      std::numeric_limits<Clock::rep>::max();
  std::atomic<bool> cancelled_{false};
  std::atomic<Clock::rep> deadline_ns_{kNoDeadline};
};

}  // namespace bbs::solver
