// The work-stealing priority scheduler (util/scheduler.hpp), the
// parallel_for fork-join over the shared pool (coverage, error contract,
// nesting without extra threads or deadlock), and the batch driver's
// bit-identity across thread counts, nested loops included.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flow/batch.hpp"
#include "util/scheduler.hpp"

namespace sitm {
namespace {

TEST(Scheduler, RunsEveryJobOnce) {
  WorkStealingScheduler sched(4);
  std::vector<std::atomic<int>> ran(100);
  for (std::size_t i = 0; i < ran.size(); ++i)
    EXPECT_TRUE(sched.submit([&ran, i] { ran[i].fetch_add(1); }));
  sched.shutdown();  // drains every accepted job
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(sched.executed(), ran.size());
  EXPECT_FALSE(sched.submit([] {}));  // refused once shut down
}

TEST(Scheduler, PriorityOrdersExecutionStart) {
  // One worker, parked on a first job while the rest are queued: once it
  // is released the pop order is fully deterministic — highest priority
  // first, FIFO within a priority.
  WorkStealingScheduler sched(1);
  std::promise<void> gate;
  std::atomic<bool> parked{false};
  sched.submit([&parked, go = gate.get_future().share()] {
    parked.store(true);
    go.wait();
  });
  while (!parked.load()) std::this_thread::yield();
  std::vector<int> order;
  sched.submit([&] { order.push_back(0); }, /*priority=*/0);
  sched.submit([&] { order.push_back(1); }, /*priority=*/5);
  sched.submit([&] { order.push_back(2); }, /*priority=*/1);
  sched.submit([&] { order.push_back(3); }, /*priority=*/5);
  gate.set_value();
  sched.shutdown();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0}));
}

TEST(Scheduler, StealsFromABlockedWorkersDeque) {
  WorkStealingScheduler sched(2);
  std::atomic<bool> started{false}, release{false};
  sched.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();

  // With one worker parked, the other must drain both deques; submissions
  // round-robin, so some of these jobs sit on the parked worker's deque and
  // can only complete via a steal.
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    sched.submit([&] { done.fetch_add(1); });
  while (done.load() < 8) std::this_thread::yield();
  EXPECT_GE(sched.steals(), 1u);

  release.store(true);
  sched.shutdown();
  EXPECT_EQ(sched.executed(), 9u);
}

// ---- parallel_for on the shared pool -------------------------------------

TEST(ParallelFor, CoversAllIndices) {
  std::vector<std::atomic<int>> ran(1000);
  parallel_for(ran.size(), 4, [&](std::size_t i) { ran[i].fetch_add(1); });
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(ParallelFor, RethrowsFirstException) {
  EXPECT_THROW(parallel_for(64, 4,
                            [&](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, RethrowsFromNestedCall) {
  std::atomic<int> outer_done{0};
  try {
    parallel_for(4, 4, [&](std::size_t i) {
      parallel_for(8, 2, [&](std::size_t k) {
        if (i == 2 && k == 5) throw std::runtime_error("inner");
      });
      outer_done.fetch_add(1);
    });
    FAIL() << "the nested exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner");
  }
  EXPECT_LE(outer_done.load(), 3);  // outer index 2 never completed
}

TEST(ParallelFor, CompletesWhenPoolIsBusy) {
  // Park every shared-pool worker: the call must still finish, all on the
  // calling thread, because the caller never waits for a helper to start.
  WorkStealingScheduler& pool = shared_pool();
  std::promise<void> gate;
  const std::shared_future<void> go = gate.get_future().share();
  std::atomic<int> parked{0};
  for (int w = 0; w < pool.num_workers(); ++w)
    pool.submit([&parked, go] {
      parked.fetch_add(1);
      go.wait();
    });
  while (parked.load() < pool.num_workers()) std::this_thread::yield();

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> ran(64);
  std::atomic<int> off_caller{0};
  parallel_for(ran.size(), 4, [&](std::size_t i) {
    ran[i].fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
  });
  gate.set_value();
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  EXPECT_EQ(off_caller.load(), 0);
}

/// The process's OS thread count, from /proc/self/status; -1 if unknown.
int os_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(ParallelFor, NestedCallsStayInsidePool) {
  parallel_for(2, 2, [](std::size_t) {});  // creates the shared pool
  const int warm = os_threads();
  ASSERT_GT(warm, 0);
  std::atomic<int> peak{0};
  std::atomic<int> inner_runs{0};
  parallel_for(4, 4, [&](std::size_t) {
    parallel_for(4, 4, [&](std::size_t) {
      const int now = os_threads();
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      inner_runs.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_runs.load(), 16);
  EXPECT_LE(peak.load(), warm);
}

// ---- batch bit-identity on the scheduler --------------------------------

/// Serialize `j` with the timing/scheduling observables stripped — the only
/// fields allowed to differ across thread counts: times, the resolved
/// thread counts, and the mapper's work counters for abandoned candidates,
/// per-signal syntheses and minimizations (its round width follows the map
/// thread count).
std::string normalized(const Json& j) {
  switch (j.kind()) {
    case Json::Kind::kObject: {
      std::string out = "{";
      for (const auto& [k, v] : j.members()) {
        if (k == "wall_ms" || k == "total_ms" || k == "workers" ||
            k == "steals" || k == "threads" || k == "resyntheses_pruned" ||
            k == "signals_resynthesized" || k == "minimizations")
          continue;
        out += '"' + k + "\":" + normalized(v) + ',';
      }
      out += '}';
      return out;
    }
    case Json::Kind::kArray: {
      std::string out = "[";
      for (const auto& v : j.items()) out += normalized(v) + ',';
      out += ']';
      return out;
    }
    default: return j.dump(0);
  }
}

TEST(Scheduler, BatchResultsBitIdenticalAcrossThreadCounts) {
  const std::vector<std::string> names = {"chu133", "converta", "dff",
                                          "half"};
  BatchOptions opts;
  opts.flow.mapper.library.max_literals = 2;

  opts.threads = 1;
  const std::string serial = normalized(run_batch_suite(names, opts).to_json());
  for (const int threads : {2, 4, 0}) {
    opts.threads = threads;
    EXPECT_EQ(normalized(run_batch_suite(names, opts).to_json()), serial)
        << "threads=" << threads;
  }
  // Nested: every flow forks its synth and map loops onto the same pool
  // its batch item runs on.
  opts.flow.mc.threads = 2;
  opts.flow.mapper.threads = 2;
  for (const int threads : {1, 2, 4}) {
    opts.threads = threads;
    EXPECT_EQ(normalized(run_batch_suite(names, opts).to_json()), serial)
        << "nested, threads=" << threads;
  }
}

}  // namespace
}  // namespace sitm
