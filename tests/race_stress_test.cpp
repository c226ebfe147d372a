// Concurrency stress for the components that share mutable state across
// threads: the work-stealing scheduler (submit / steal / shutdown) and
// the parallel_for fork-join on the shared pool, the sharded FlowCache (get / insert / evict / clear under
// contention), the SlabPool under the shard-lock discipline with blocks
// crossing threads, the unix-socket serve loop (connect / request /
// shutdown races), and the batch watchdog racing item completion.
//
// These tests assert functional invariants (counts, payload integrity,
// response well-formedness), but their real assertion is the *absence of
// sanitizer reports*: the tsan preset (CMakePresets.json) runs this file
// under -fsanitize=thread in CI, and any data race is a hard failure.
// Iteration counts are sized so the whole file stays in CI budget at
// TSan's ~10x slowdown on a small machine.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/suite.hpp"
#include "flow/batch.hpp"
#include "serve/arena.hpp"
#include "serve/flow_cache.hpp"
#include "serve/server.hpp"
#include "stg/g_io.hpp"
#include "util/json.hpp"
#include "util/scheduler.hpp"

namespace sitm {
namespace {

constexpr int kThreads = 4;

// ---- WorkStealingScheduler ----------------------------------------------

TEST(RaceStress, SchedulerSubmitStealShutdown) {
  constexpr int kProducers = 3;
  constexpr int kJobsPerProducer = 400;
  std::atomic<int> executed{0};
  std::vector<std::atomic<int>> slots(kProducers * kJobsPerProducer);

  auto sched = std::make_unique<WorkStealingScheduler>(kThreads);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kJobsPerProducer; ++i) {
        const int slot = p * kJobsPerProducer + i;
        sched->submit(
            [&, slot] {
              slots[static_cast<std::size_t>(slot)].fetch_add(
                  1, std::memory_order_relaxed);
              executed.fetch_add(1, std::memory_order_relaxed);
            },
            /*priority=*/i % 5);
      }
    });
  }
  for (auto& t : producers) t.join();
  // Destroying the scheduler shuts down and drains: every job must have run
  // exactly once, before or during the workers' drain.
  sched.reset();
  EXPECT_EQ(executed.load(), kProducers * kJobsPerProducer);
  for (auto& s : slots) EXPECT_EQ(s.load(), 1);
}

TEST(RaceStress, SchedulerShutdownRacesLateSubmitters) {
  // Producers keep submitting while the main thread calls shutdown():
  // every accepted job must still run exactly once (on a worker before the
  // drain or during it), and every job submitted later is refused.
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::atomic<int> attempts{0};
    auto sched = std::make_unique<WorkStealingScheduler>(kThreads);
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          if (sched->submit(
                  [&] { executed.fetch_add(1, std::memory_order_relaxed); }))
            accepted.fetch_add(1, std::memory_order_relaxed);
          attempts.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    while (attempts.load(std::memory_order_relaxed) < 50)
      std::this_thread::yield();
    sched->shutdown();  // races the producers' submit() calls
    for (auto& t : producers) t.join();
    sched.reset();
    EXPECT_EQ(executed.load(), accepted.load());
    EXPECT_GE(accepted.load(), 50);
  }
}

TEST(RaceStress, ParallelForVsCrossThreadSubmit) {
  // Fork-joins on the shared pool while another thread floods the same
  // pool with plain jobs: every index and every job runs exactly once.
  constexpr int kJobs = 600;
  WorkStealingScheduler& pool = shared_pool();
  std::atomic<int> executed{0};
  std::thread producer([&] {
    // Not relaxed: the final load below must order the jobs' last touch of
    // this frame before the test returns.
    for (int i = 0; i < kJobs; ++i)
      pool.submit([&] { executed.fetch_add(1); }, i % 3);
  });
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> ran(64);
    parallel_for(ran.size(), kThreads,
                 [&](std::size_t i) { ran[i].fetch_add(1); });
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  }
  producer.join();
  while (executed.load() < kJobs) std::this_thread::yield();
  EXPECT_EQ(executed.load(), kJobs);
}

// ---- FlowCache -----------------------------------------------------------

serve::CacheKey stress_key(std::uint64_t n) {
  return serve::CacheKey{SpecHash{n * 0x9e3779b97f4a7c15ull, ~n}, n % 3};
}

/// Payload is a pure function of the key, so the cache's first-insert-wins
/// contract means ANY hit must return exactly these bytes.
std::string stress_payload(std::uint64_t n) {
  const std::size_t len = 100 + (n * 131) % 4000;
  return std::string(len, static_cast<char>('a' + n % 26));
}

TEST(RaceStress, FlowCacheConcurrentGetInsertEvict) {
  // Budget small enough that the working set does not fit: lookups, inserts
  // and LRU evictions race across shards the whole time.
  serve::FlowCache cache(std::size_t{96} << 10, /*shards=*/4);
  constexpr std::uint64_t kKeys = 64;
  constexpr int kIters = 500;
  std::atomic<int> bad_payloads{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::string out;
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t n =
            (static_cast<std::uint64_t>(w) * 7919 + i) % kKeys;
        if (cache.lookup(stress_key(n), &out)) {
          if (out != stress_payload(n))
            bad_payloads.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.insert(stress_key(n), stress_payload(n));
        }
        if (i % 100 == 99) (void)cache.stats();
      }
    });
  }
  // One thread clears concurrently: clear() vs lookup/insert is the
  // shutdown-vs-traffic shape of the serve front-end.
  std::thread clearer([&] {
    for (int i = 0; i < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      cache.clear();
    }
  });
  for (auto& t : workers) t.join();
  clearer.join();

  EXPECT_EQ(bad_payloads.load(), 0) << "a hit returned foreign bytes";
  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(st.bytes_live, st.byte_budget);
}

// ---- SlabPool under the shard-lock discipline ----------------------------

TEST(RaceStress, SlabPoolCrossThreadRecycling) {
  // SlabPool is documented not-thread-safe; the cache uses one pool per
  // shard under that shard's mutex.  Reproduce that discipline with blocks
  // migrating between threads: alloc+write on one thread, release on
  // another, pool always under the lock.
  serve::SlabPool pool;
  std::mutex m;
  std::vector<serve::SlabPool::Block> parked;
  std::atomic<int> transferred{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 400; ++i) {
        const std::size_t n = 64 + ((static_cast<std::size_t>(w) * 31 + i) *
                                    97) % 6000;
        if ((w + i) % 2 == 0) {
          serve::SlabPool::Block b;
          {
            const std::lock_guard<std::mutex> lock(m);
            b = pool.alloc(n);
          }
          std::memset(b.data, w, b.size);  // touch outside the lock
          const std::lock_guard<std::mutex> lock(m);
          parked.push_back(b);
        } else {
          serve::SlabPool::Block b;
          {
            const std::lock_guard<std::mutex> lock(m);
            if (parked.empty()) continue;
            b = parked.back();
            parked.pop_back();
          }
          b.data[0] = static_cast<char>(w);  // touch foreign block
          const std::lock_guard<std::mutex> lock(m);
          pool.release(b);
          transferred.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (auto& b : parked) pool.release(b);
  EXPECT_GT(transferred.load(), 0);
  EXPECT_EQ(pool.bytes_live(), 0u);
  pool.trim();
  EXPECT_EQ(pool.bytes_pooled(), 0u);
}

// ---- serve_socket connect / request / shutdown ---------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Send one request line, read the one response line.  Empty string on any
/// socket error (expected when racing shutdown).
std::string roundtrip(int fd, const std::string& line) {
  const std::string out = line + "\n";
  // MSG_NOSIGNAL: racing the server's shutdown means the peer may already
  // be closed; that must read as an error, not SIGPIPE this process.
  if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(out.size()))
    return {};
  std::string resp;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return resp;
    resp.push_back(c);
  }
  return {};
}

TEST(RaceStress, ServeSocketConnectRequestShutdown) {
  const std::string path = testing::TempDir() + "race_stress_serve.sock";
  serve::ServeOptions so;
  so.threads = 2;
  so.flow.lint = true;
  serve::ServeEngine engine(so);
  std::thread server([&] { serve::serve_socket(engine, path); });

  // Wait until the socket accepts.
  int probe = -1;
  for (int i = 0; i < 2000 && probe < 0; ++i) {
    probe = connect_unix(path);
    if (probe < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(probe, 0) << "server socket never came up";
  ::close(probe);

  const std::string spec =
      write_g_string(bench::suite_benchmark("chu133").stg, "chu133");
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 6; ++i) {
        const int fd = connect_unix(path);
        if (fd < 0) return;  // shutdown already won the race
        Json j = Json::object();
        j.set("id", Json("c" + std::to_string(c) + "-" + std::to_string(i)));
        // Mix cheap control ops, real flows (cache-hot after the first),
        // and a lint-rejected garbage spec.
        if (i % 3 == 0)
          j = Json::parse(R"({"op":"stats"})");
        else if (i % 3 == 1)
          j.set("spec", Json(spec));
        else
          j.set("spec", Json(".model junk\n.inputs a\n.graph\na+ a+\n"
                             ".marking { }\n.end\n"));
        const std::string resp = roundtrip(fd, j.dump(0));
        ::close(fd);
        if (!resp.empty()) {
          EXPECT_NO_THROW((void)Json::parse(resp)) << resp;
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Let the clients get going, then race a shutdown against them.
  while (answered.load(std::memory_order_relaxed) < 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const int fd = connect_unix(path);
  if (fd >= 0) {
    (void)roundtrip(fd, R"({"op":"shutdown"})");
    ::close(fd);
  }
  for (auto& t : clients) t.join();
  server.join();
  EXPECT_TRUE(engine.shutdown_requested());
  EXPECT_GE(answered.load(), 4);
  ::unlink(path.c_str());
}

// ---- batch watchdog vs completing items ----------------------------------

TEST(RaceStress, BatchWatchdogRacesCompletion) {
  // Deadlines chosen to straddle real item runtimes: some items finish just
  // as the watchdog fires, which is exactly the cancel-vs-complete race the
  // watchdog must lose gracefully.  Any per-item outcome is legal; the
  // batch must report every item exactly once, typed.
  const std::vector<std::string> names = {"chu133", "converta", "chu133",
                                          "converta"};
  for (const double deadline_ms : {2.0, 15.0, 200.0}) {
    BatchOptions opts;
    opts.threads = kThreads;
    opts.item_deadline_ms = deadline_ms;
    opts.flow.stop_after = Stage::kSynth;
    const BatchResult result = run_batch_suite(names, opts);
    ASSERT_EQ(result.items.size(), names.size());
    EXPECT_EQ(result.num_ok + result.num_failed,
              static_cast<int>(names.size()));
    for (const BatchItem& item : result.items) {
      if (!item.report.ok)
        EXPECT_NE(item.report.failure_kind, FailureKind::kNone) << item.label;
    }
  }
}

}  // namespace
}  // namespace sitm
