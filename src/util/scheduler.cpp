#include "util/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>

namespace sitm {

namespace {

/// Poll `ready` for up to kSpin (see "Idle threads poll" in the header),
/// yielding the CPU between polls; true once it holds.
constexpr auto kSpin = std::chrono::microseconds(50);

template <typename Ready>
bool spin_until(Ready ready) {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

int resolve_worker_threads(int threads, std::size_t count) {
  if (threads <= 0)
    threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  if (count < static_cast<std::size_t>(threads))
    threads = static_cast<int>(count);
  return threads;
}

WorkStealingScheduler::WorkStealingScheduler(int threads) {
  const int workers = resolve_worker_threads(
      threads, std::numeric_limits<std::size_t>::max());
  deques_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    deques_.push_back(std::make_unique<Deque>());
  threads_.reserve(static_cast<std::size_t>(workers));
  for (std::size_t self = 0; self < deques_.size(); ++self)
    threads_.emplace_back([this, self] { worker_loop(self); });
}

WorkStealingScheduler::~WorkStealingScheduler() { shutdown(); }

bool WorkStealingScheduler::submit(std::function<void()> fn, int priority) {
  Job job;
  job.priority = priority;
  job.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  job.fn = std::move(fn);
  const std::size_t d =
      next_deque_.fetch_add(1, std::memory_order_relaxed) % deques_.size();
  {
    // Pushing under wake_m_ orders every accepted job before stopping_, so
    // the workers' shutdown drain sees it.
    const std::lock_guard<std::mutex> lock(wake_m_);
    if (stopping_) return false;
    {
      const std::lock_guard<std::mutex> deque_lock(deques_[d]->m);
      deques_[d]->jobs.push_back(std::move(job));
    }
    wake_epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
  return true;
}

bool WorkStealingScheduler::pop_best(Deque& d, Job* out) {
  const std::lock_guard<std::mutex> lock(d.m);
  if (d.jobs.empty()) return false;
  auto best = d.jobs.begin();
  for (auto it = std::next(best); it != d.jobs.end(); ++it)
    if (it->priority > best->priority ||
        (it->priority == best->priority && it->seq < best->seq))
      best = it;
  *out = std::move(*best);
  d.jobs.erase(best);
  return true;
}

bool WorkStealingScheduler::run_one(std::size_t self) {
  Job job;
  bool found = pop_best(*deques_[self], &job);
  if (!found) {
    for (std::size_t k = 1; !found && k < deques_.size(); ++k) {
      const std::size_t victim = (self + k) % deques_.size();
      found = pop_best(*deques_[victim], &job);
    }
    if (found) steals_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!found) return false;
  job.fn();
  executed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void WorkStealingScheduler::worker_loop(std::size_t self) {
  const auto bumped = [this](std::uint64_t epoch) {
    return wake_epoch_.load(std::memory_order_acquire) != epoch;
  };
  while (true) {
    const std::uint64_t epoch = wake_epoch_.load(std::memory_order_acquire);
    if (run_one(self)) continue;
    if (spin_until([&] { return bumped(epoch); })) continue;
    std::unique_lock<std::mutex> lock(wake_m_);
    wake_cv_.wait(lock, [&] { return stopping_ || bumped(epoch); });
    if (stopping_) {
      lock.unlock();
      while (run_one(self)) {
      }
      return;
    }
  }
}

void WorkStealingScheduler::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(wake_m_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
}

WorkStealingScheduler& shared_pool() {
  static WorkStealingScheduler pool(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

namespace {

/// One parallel_for call's state, shared with its helper jobs.  A helper
/// that starts after the call returned finds every index claimed and
/// exits; `fn` points into the caller's frame and is only called for a
/// claimed index, which the caller waits for.
struct ForkJoin {
  ForkJoin(std::size_t n, const std::function<void(std::size_t)>* f)
      : count(n), fn(f) {}

  const std::size_t count;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  std::mutex m;
  std::condition_variable all_done;
  std::atomic<std::size_t> done{0};  ///< finished indices; bumped under m
  std::exception_ptr error;  ///< first body exception; written under m

  /// Claim and finish indices until none is left.  After a failure the
  /// remaining indices are still claimed, so the caller's wait ends, but
  /// their bodies are skipped.
  void work() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      std::exception_ptr e;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*fn)(i);
        } catch (...) {
          e = std::current_exception();
        }
      }
      const std::lock_guard<std::mutex> lock(m);
      if (e && !error) {
        error = std::move(e);
        failed.store(true, std::memory_order_relaxed);
      }
      if (done.fetch_add(1, std::memory_order_release) + 1 == count)
        all_done.notify_all();
    }
  }
};

}  // namespace

namespace detail {

void fork_join(std::size_t count, int threads,
               const std::function<void(std::size_t)>& fn) {
  const auto group = std::make_shared<ForkJoin>(count, &fn);
  WorkStealingScheduler& pool = shared_pool();
  const int helpers = std::min(threads - 1, pool.num_workers());
  for (int h = 0; h < helpers; ++h) pool.submit([group] { group->work(); });
  group->work();
  const auto finished = [&] {
    return group->done.load(std::memory_order_acquire) == count;
  };
  if (!spin_until(finished)) {
    std::unique_lock<std::mutex> lock(group->m);
    group->all_done.wait(lock, finished);
  }
  // Every index is finished, so nothing writes `error` any more.
  if (group->error) std::rethrow_exception(group->error);
}

}  // namespace detail

}  // namespace sitm
