#pragma once
// The one thread runtime: a work-stealing priority scheduler, and
// parallel_for, a fork-join over one process-wide instance of it.
//
// WorkStealingScheduler: one deque of jobs per worker, guarded by a
// per-deque mutex (jobs here are whole flows, signal syntheses or
// candidate evaluations — microseconds to seconds — so the lock is never
// the bottleneck; a lock-free Chase-Lev deque would buy nothing and cost
// auditability).  Submission round-robins across deques; an idle worker
// first drains its own deque (highest priority first, FIFO within a
// priority), then steals the best job of the first non-empty victim in
// round-robin order, counting the steal.  Per-job priorities order
// *execution start*, not completion: a higher-priority job is popped
// before any lower-priority job visible on the same deque scan.
//
// Two owners, one runtime:
//   * parallel_for (per-signal synthesis, mapper candidates, batch specs)
//     forks onto shared_pool(), created on the first call that needs more
//     than one thread, with hardware_concurrency()-1 workers; the calling
//     thread is the last worker.
//   * ServeEngine owns an instance sized by ServeOptions::threads for its
//     prioritized request jobs; the loops nested in those requests fork
//     onto shared_pool().
// So at most serve workers + nproc-1 threads ever run compute, and no
// thread is created per call.
//
// Nesting rule: a parallel_for caller enqueues helper jobs, claims indices
// itself from the same counter as the helpers, and then waits only for
// indices other threads already claimed — never for a helper to start.  A
// call therefore completes on the caller alone when every pool worker is
// busy, and nested calls (batch -> synth/map, serve request -> map) cannot
// deadlock.
//
// Idle threads poll (yielding) for 50 us before they block: a pool worker
// that finds no job, and a caller waiting for claimed indices.  One
// caller's fork-joins follow each other within tens of microseconds, while
// waking a parked thread costs hundreds where idle CPUs halt (virtual
// machines), by an amount that follows the host's load.
//
// Determinism contract: the runtime guarantees nothing about execution
// order across workers.  Callers that need deterministic aggregates
// (synthesis, mapper, batch) write results into index-addressed slots, so
// the output is bit-identical at every thread count.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sitm {

/// Resolve a user-facing thread count: 0 (or any non-positive value) means
/// one worker per hardware core, and no more workers than there are items.
/// Always resolves to >= 1 worker when there is work —
/// `hardware_concurrency()` is allowed to return 0 ("unknown"), which must
/// clamp to one worker, not a zero-width pool.
int resolve_worker_threads(int threads, std::size_t count);

class WorkStealingScheduler {
 public:
  /// Spawns resolve_worker_threads(threads, ∞) workers (<= 0 = one per
  /// hardware core, always >= 1); submissions run as they arrive.
  explicit WorkStealingScheduler(int threads);
  ~WorkStealingScheduler();

  WorkStealingScheduler(const WorkStealingScheduler&) = delete;
  WorkStealingScheduler& operator=(const WorkStealingScheduler&) = delete;

  /// Enqueue a job.  Higher `priority` starts earlier; ties run FIFO.
  /// Jobs must not throw — wrap the body (parallel_for and serve both
  /// capture failures); an escaping exception terminates.  Returns false,
  /// without running `fn`, once shutdown() has begun.
  bool submit(std::function<void()> fn, int priority = 0);

  /// Refuse further submissions, let the workers drain every accepted job,
  /// join.  Idempotent; the destructor calls it.
  void shutdown();

  int num_workers() const { return static_cast<int>(deques_.size()); }
  /// Jobs executed by a worker other than the deque they were submitted to.
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    int priority = 0;
    std::uint64_t seq = 0;  ///< global submission order, FIFO tie-break
    std::function<void()> fn;
  };
  struct Deque {
    std::mutex m;
    std::deque<Job> jobs;
  };

  /// Pop the best job of deque `d` (highest priority, lowest seq); false
  /// when empty.
  bool pop_best(Deque& d, Job* out);
  /// One scheduling step for worker `self`: own deque, then steal.  Returns
  /// false when no job was found anywhere at scan time.
  bool run_one(std::size_t self);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Deque>> deques_;

  // Sleeping is race-free through the epoch: a worker records it *before*
  // scanning the deques, and every submission bumps it after its push, so
  // a job pushed after the scan defeats the poll and the wait predicate.
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
  std::atomic<std::uint64_t> wake_epoch_{0};  ///< bumped under wake_m_
  bool stopping_ = false;                     ///< guarded by wake_m_

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> next_deque_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> executed_{0};

  std::vector<std::thread> threads_;  ///< last: the workers use the above
};

/// The process-wide pool parallel_for forks onto: created on first use
/// with max(1, hardware_concurrency() - 1) workers, joined at exit.
WorkStealingScheduler& shared_pool();

namespace detail {
/// parallel_for's fork-join over shared_pool(), for threads >= 2.
void fork_join(std::size_t count, int threads,
               const std::function<void(std::size_t)>& fn);
}  // namespace detail

/// Run fn(i) for every i in [0, count) on up to `threads` threads
/// (resolved by resolve_worker_threads), the calling thread among them; no
/// ordering guarantee across indices.  At one thread the loop runs inline
/// and the shared pool is never touched.  Otherwise at most threads-1
/// helper jobs go to shared_pool() (see the nesting rule above).
///
/// Error contract: the first exception thrown by the body stops later
/// indices from running their body and is rethrown on the calling thread
/// once every claimed index has finished.
template <typename Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
  threads = resolve_worker_threads(threads, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  detail::fork_join(count, threads, std::ref(fn));
}

}  // namespace sitm
