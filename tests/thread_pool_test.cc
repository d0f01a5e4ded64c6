// Lifecycle and corruption-injection tests for common::ThreadPool and its
// one FIFO queue — the suite the TSan CI leg runs with real concurrency.
// Covers the inline (single-thread) degradation, Wait draining submitted
// work, Submit rejection after Shutdown, a free worker draining the queue
// behind a blocked one in Submit order, and the pool's own
// AuditInvariants() both passing under heavy traffic and firing on an
// injected accounting corruption.

#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qoco::common {

// Friend of ThreadPool (declared in thread_pool.h): simulates the effect of
// a torn/lost counter update so the audit's accounting cross-check fires
// without an actual data race (the suite must stay TSan-clean).
struct ThreadPoolCorruptor {
  static void InjectPhantomCompletion(ThreadPool* pool) {
    MutexLock lk(pool->wake_mu_);
    ++pool->completed_total_;
  }
};

namespace {

TEST(ThreadPoolInline, SingleThreadPoolRunsSubmitOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id ran_on;
  ASSERT_TRUE(pool.Submit([&] { ran_on = std::this_thread::get_id(); }).ok());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  pool.Wait();  // Trivially satisfied; must not hang.
  EXPECT_TRUE(pool.AuditInvariants().ok());
}

TEST(ThreadPool, WaitBlocksUntilSubmittedWorkDrains) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
                      std::this_thread::sleep_for(std::chrono::microseconds(50));
                      counter.fetch_add(1, std::memory_order_relaxed);
                    })
                    .ok());
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 64);
  EXPECT_TRUE(pool.AuditInvariants().ok());
}

TEST(ThreadPool, SubmitAfterShutdownIsRejectedWithFailedPrecondition) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        pool.Submit([&] { counter.fetch_add(1, std::memory_order_relaxed); })
            .ok());
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 8) << "Shutdown must drain queued work";
  Status rejected = pool.Submit([] {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  pool.Shutdown();  // Idempotent.
  EXPECT_TRUE(pool.AuditInvariants().ok());
}

/// Parks one pool worker on a task that blocks until Release().
class WorkerHold {
 public:
  /// Submits the blocking task and returns once a worker has started it.
  void Hold(ThreadPool* pool) {
    ASSERT_TRUE(pool->Submit([this] {
                      std::unique_lock<std::mutex> lk(mu_);
                      started_ = true;
                      cv_.notify_all();
                      cv_.wait(lk, [this] { return released_; });
                    })
                    .ok());
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return started_; });
  }

  void Release() {
    std::unique_lock<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
};

/// Polls `done` until it holds or a generous deadline passes; normally
/// returns within microseconds.
void WaitUntil(const std::function<bool()>& done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ThreadPool, FreeWorkerDrainsWorkQueuedBehindABlockedTask) {
  ThreadPool pool(2);
  // The blocker parks one worker; the ten quick tasks queued behind it can
  // only finish if the free worker takes them.
  WorkerHold hold;
  hold.Hold(&pool);
  std::atomic<int> quick_done{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        pool.Submit([&] { quick_done.fetch_add(1, std::memory_order_relaxed); })
            .ok());
  }
  // All 10 quick tasks must complete while the blocker still holds its
  // worker.
  WaitUntil([&] { return quick_done.load() == 10; });
  EXPECT_EQ(quick_done.load(), 10)
      << "the free worker left work queued behind the blocked one";
  hold.Release();
  pool.Wait();
  EXPECT_TRUE(pool.AuditInvariants().ok());
}

TEST(ThreadPool, QueuedTasksStartInSubmitOrder) {
  ThreadPool pool(2);
  // With one worker parked, the other runs every queued task alone, so the
  // order they record is the order they started.
  WorkerHold hold;
  hold.Hold(&pool);
  std::mutex mu;
  std::vector<int> started;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&, i] {
                      std::lock_guard<std::mutex> lk(mu);
                      started.push_back(i);
                    })
                    .ok());
  }
  WaitUntil([&] {
    std::lock_guard<std::mutex> lk(mu);
    return started.size() == 10;
  });
  hold.Release();
  pool.Wait();
  EXPECT_EQ(started, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_TRUE(pool.AuditInvariants().ok());
}

/// Submits `n` counting tasks and waits for all of them: one wave.
void SubmitWave(ThreadPool* pool, size_t n, std::atomic<int>* sink) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(
        pool->Submit([sink] { sink->fetch_add(1, std::memory_order_relaxed); })
            .ok());
  }
  pool->Wait();
}

TEST(ThreadPool, AuditPassesUnderConcurrentTraffic) {
  ThreadPool pool(4);
  std::atomic<int> sink{0};
  for (int round = 0; round < 20; ++round) {
    SubmitWave(&pool, 64, &sink);
    // Audit between waves, at a quiescent point.
    ASSERT_TRUE(pool.AuditInvariants().ok());
  }
  EXPECT_EQ(sink.load(), 20 * 64);
}

TEST(ThreadPoolAudit, InjectedAccountingCorruptionFires) {
  ThreadPool pool(2);
  std::atomic<int> sink{0};
  SubmitWave(&pool, 32, &sink);
  ASSERT_TRUE(pool.AuditInvariants().ok());
  // A phantom completion breaks submitted == completed + running + queued.
  ThreadPoolCorruptor::InjectPhantomCompletion(&pool);
  Status audit = pool.AuditInvariants();
  ASSERT_FALSE(audit.ok());
  EXPECT_EQ(audit.code(), StatusCode::kInternal);
  EXPECT_NE(audit.message().find("accounting"), std::string::npos) << audit.message();
}

TEST(ThreadPoolResolve, ExplicitRequestWinsOverEverything) {
  ::setenv("QOCO_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(5), 5u);
  ::unsetenv("QOCO_THREADS");
}

TEST(ThreadPoolResolve, EnvVariableDrivesTheDefault) {
  ::setenv("QOCO_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(0), 3u);
  ::unsetenv("QOCO_THREADS");
}

TEST(ThreadPoolResolve, GarbageEnvFallsBackAndNeverReturnsZero) {
  ::setenv("QOCO_THREADS", "not-a-number", /*overwrite=*/1);
  EXPECT_GE(ThreadPool::ResolveNumThreads(0), 1u);
  ::setenv("QOCO_THREADS", "0", /*overwrite=*/1);
  EXPECT_GE(ThreadPool::ResolveNumThreads(0), 1u);
  ::unsetenv("QOCO_THREADS");
  EXPECT_GE(ThreadPool::ResolveNumThreads(0), 1u);
}

}  // namespace
}  // namespace qoco::common
