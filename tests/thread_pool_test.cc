// Lifecycle and corruption-injection tests for the work-stealing
// common::ThreadPool — the suite the TSan CI leg runs with real
// concurrency. Covers the inline (single-thread) degradation, Wait draining
// submitted work, Submit rejection after Shutdown, work stealing draining
// the queue behind a blocked worker, and the pool's own AuditInvariants()
// both passing under heavy traffic and firing on an injected accounting
// corruption.

#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
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

TEST(ThreadPool, StealingDrainsWorkQueuedBehindABlockedTask) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool blocker_started = false;
  // The blocker parks one worker. Submit round-robins across the two
  // worker queues, so some of the quick tasks land behind the blocker;
  // they can only finish if the free worker steals them.
  ASSERT_TRUE(pool.Submit([&] {
                    std::unique_lock<std::mutex> lk(mu);
                    blocker_started = true;
                    cv.notify_all();
                    cv.wait(lk, [&] { return release; });
                  })
                  .ok());
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return blocker_started; });
  }
  std::atomic<int> quick_done{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        pool.Submit([&] { quick_done.fetch_add(1, std::memory_order_relaxed); })
            .ok());
  }
  // All 10 quick tasks must complete while the blocker still holds its
  // worker. Generous deadline; normally finishes in microseconds.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (quick_done.load() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(quick_done.load(), 10)
      << "free worker failed to steal from the blocked worker's queue";
  {
    std::unique_lock<std::mutex> lk(mu);
    release = true;
    cv.notify_all();
  }
  pool.Wait();
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
  // A phantom completion breaks submitted == completed + running + pending.
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
