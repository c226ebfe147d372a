#pragma once
// Cooperative resource governance for long-running synthesis work.
//
// A RunGuard bundles the three ways a Flow run can be bounded:
//   * a wall-clock deadline,
//   * a work budget (abstract units: states explored, candidates scored,
//     signals synthesized — heterogeneous per site, coarse by design), and
//   * an externally requested cancellation (thread-safe; the handle for a
//     batch watchdog or a future `sitm serve` front-end).
//
// Hot loops poll via `charge(units, site)`.  The fast path is one relaxed
// fetch_add plus two relaxed loads — the wall clock is read only when the
// accumulated work crosses a stride boundary (kPollStride units), so a
// guarded loop costs no syscall per iteration and stays at noise level in
// the benchmarks.  Exhaustion raises GuardExhausted, a typed sitm::Error
// carrying what ran out (budget / deadline / cancelled), where, and the
// counts — the Flow engine consumes it into the report's `failure_kind`
// instead of a stringly failure.
//
// A guard is shared: one per Flow run, passed as `const RunGuard*` into
// every stage's hot loop (nullptr = unbounded, zero overhead beyond a
// branch).  All methods are thread-safe; the polling counters are mutable
// atomics so read-only pipeline stages can share a `const RunGuard&`.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace sitm {

/// Why a guarded run stopped early.  kNone = still running.
enum class GuardStop : int { kNone = 0, kBudget, kDeadline, kCancelled };

const char* guard_stop_name(GuardStop stop);

/// Typed exhaustion error: which limit tripped, at which polling site, and
/// the work count / limit when it did (limit 0 = not applicable, e.g. a
/// cancellation).  what() renders all of it, so callers that only print the
/// message still show the counts.
class GuardExhausted : public Error {
 public:
  GuardExhausted(GuardStop kind, std::string site, std::uint64_t count = 0,
                 std::uint64_t limit = 0);

  GuardStop kind() const { return kind_; }
  const std::string& site() const { return site_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t limit() const { return limit_; }

 private:
  GuardStop kind_;
  std::string site_;
  std::uint64_t count_, limit_;
};

class RunGuard {
 public:
  /// Default construction: unlimited (every poll is a cheap no-throw).
  RunGuard() = default;

  /// Arm a wall-clock deadline `ms` from now.  ms <= 0 disarms.
  void set_deadline_ms(double ms);
  /// Arm a total work budget (abstract units).  0 disarms.
  void set_work_budget(std::uint64_t units) {
    budget_.store(units, std::memory_order_relaxed);
  }
  /// Request cooperative cancellation; the next poll from any thread throws.
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Total work units charged so far.
  std::uint64_t work() const { return work_.load(std::memory_order_relaxed); }

  /// Account `units` of work at `site`; throws GuardExhausted when the
  /// budget is exceeded, cancellation was requested, or (checked only when
  /// the counter crosses a kPollStride boundary) the deadline has passed.
  void charge(std::uint64_t units, const char* site) const {
    const std::uint64_t before = work_.fetch_add(units, std::memory_order_relaxed);
    const std::uint64_t now = before + units;
    const std::uint64_t budget = budget_.load(std::memory_order_relaxed);
    if (budget != 0 && now > budget) raise(GuardStop::kBudget, site, now, budget);
    if (cancelled_.load(std::memory_order_relaxed))
      raise(GuardStop::kCancelled, site, now, 0);
    if ((before / kPollStride) != (now / kPollStride)) check_clock(site, now);
  }

  /// Immediate full check (stage boundaries, loop preambles): no work
  /// charged, but budget / cancellation / deadline all consulted now.
  void check(const char* site) const;

  /// Non-throwing probe of the same conditions.
  GuardStop status() const;

  /// Work units between wall-clock reads on the charge() fast path.
  static constexpr std::uint64_t kPollStride = 1024;

 private:
  [[noreturn]] void raise(GuardStop kind, const char* site, std::uint64_t count,
                          std::uint64_t limit) const;
  void check_clock(const char* site, std::uint64_t count) const;
  /// Nanoseconds since the steady-clock epoch; 0 = no deadline.
  static std::int64_t now_ns();

  mutable std::atomic<std::uint64_t> work_{0};
  std::atomic<std::uint64_t> budget_{0};
  std::atomic<std::int64_t> deadline_ns_{0};
  std::atomic<bool> cancelled_{false};
};

/// Null-tolerant helpers: every guarded hot loop takes `const RunGuard*`
/// with nullptr meaning unbounded, so call sites stay one line.
inline void guard_charge(const RunGuard* guard, std::uint64_t units,
                         const char* site) {
  if (guard) guard->charge(units, site);
}
inline void guard_check(const RunGuard* guard, const char* site) {
  if (guard) guard->check(site);
}

}  // namespace sitm
