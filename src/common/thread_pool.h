#ifndef QOCO_COMMON_THREAD_POOL_H_
#define QOCO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_safety.h"

namespace qoco::common {

/// One-shot completion latch: a waiter blocks until some other thread calls
/// Notify(). The service layer parks a cleaning session on one of these
/// while its crowd question is in flight (src/service/question_broker.h);
/// the broker's fan-out path notifies every parked session when the answer
/// arrives. Notify may be called at most once per Notification; waiting
/// after notification returns immediately, so completion-before-wait races
/// are benign by construction.
class Notification {
 public:
  Notification() = default;
  Notification(const Notification&) = delete;
  Notification& operator=(const Notification&) = delete;

  /// Wakes every current and future waiter. Must be called at most once.
  void Notify();

  /// True once Notify has been called.
  bool HasBeenNotified() const;

  /// Blocks until Notify has been called (returns immediately if it already
  /// was).
  void WaitForNotification() const;

 private:
  mutable Mutex mu_;
  mutable std::condition_variable_any cv_;
  bool notified_ QOCO_GUARDED_BY(mu_) = false;
};

/// Fixed-size thread pool with one FIFO queue. In the library it runs
/// whole cleaning sessions side by side in the service
/// (src/service/session_manager.h) and nothing else; a single session never
/// fans out onto it (DESIGN.md §Concurrency).
///
/// Design contract:
///
///  1. **Graceful degradation.** A pool built with `num_threads <= 1` (or
///     when hardware_concurrency is unknown and nothing overrides it)
///     spawns no worker threads at all: Submit runs the task inline on the
///     caller. Code written against the pool never needs a separate serial
///     code path.
///  2. **One FIFO queue.** Every idle worker pops the oldest queued task,
///     so tasks start in Submit order and a long-running task never
///     strands the work queued behind it.
///
/// Submitted tasks must not throw.
///
/// Thread safety: Submit/Wait may be called from any thread, including
/// concurrently. Shutdown drains queued work, joins the workers and is
/// idempotent; Submit afterwards is rejected with FailedPrecondition.
class ThreadPool {
 public:
  /// `num_threads == 0` resolves via ResolveNumThreads (QOCO_THREADS env
  /// var, else hardware_concurrency, else 1). `num_threads <= 1` builds an
  /// inline pool with no worker threads.
  explicit ThreadPool(size_t num_threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Worker count this pool schedules onto (1 for an inline pool).
  size_t num_threads() const { return num_threads_; }

  /// Enqueues a fire-and-forget task. On an inline pool the task runs
  /// before Submit returns. Rejected with FailedPrecondition once Shutdown
  /// has begun. Tasks must not throw.
  Status Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed.
  void Wait();

  /// Drains outstanding tasks, joins the workers. Idempotent.
  void Shutdown();

  /// Deep audit of the pool's scheduling accounting: queued + running +
  /// completed tasks must add up to submitted tasks, and a shut-down or
  /// inline pool must have nothing queued. Takes the pool's lock (the pool
  /// may be concurrently active). Returns OK or kInternal listing every
  /// violation.
  Status AuditInvariants() const;

  /// Resolves a requested thread count: `requested > 0` wins; otherwise the
  /// QOCO_THREADS environment variable (positive integer) if set and
  /// parseable; otherwise std::thread::hardware_concurrency(); never 0.
  static size_t ResolveNumThreads(size_t requested);

 private:
  // Test-only backdoor used by the corruption-injection tests to simulate
  // the effect of a torn/lost counter update (tests/thread_pool_test.cc).
  friend struct ThreadPoolCorruptor;

  void WorkerLoop();

  size_t num_threads_ = 1;
  /// Immutable once the constructor returns (joined threads stay in the
  /// vector, non-joinable), so emptiness/size reads need no lock.
  std::vector<std::thread> workers_;

  /// Scheduling state shared by producers and workers. `queue_` holds the
  /// tasks not yet started, oldest first; `running_` counts tasks popped
  /// but not finished. Every annotated member is guarded by wake_mu_
  /// (checked by clang -Wthread-safety and qoco-analyze rule `guarded-by`).
  mutable Mutex wake_mu_;
  std::condition_variable_any wake_cv_;  // workers: work available / shutdown
  std::condition_variable_any done_cv_;  // Wait(): everything drained
  std::deque<std::function<void()>> queue_ QOCO_GUARDED_BY(wake_mu_);
  size_t running_ QOCO_GUARDED_BY(wake_mu_) = 0;
  uint64_t submitted_total_ QOCO_GUARDED_BY(wake_mu_) = 0;
  uint64_t completed_total_ QOCO_GUARDED_BY(wake_mu_) = 0;
  bool shutdown_ QOCO_GUARDED_BY(wake_mu_) = false;
};

}  // namespace qoco::common

#endif  // QOCO_COMMON_THREAD_POOL_H_
