#include "src/common/thread_pool.h"

#include <cstdlib>
#include <limits>
#include <string>

#include "src/common/invariant.h"

namespace qoco::common {

void Notification::Notify() {
  MutexLock lk(mu_);
  notified_ = true;
  cv_.notify_all();
}

bool Notification::HasBeenNotified() const {
  MutexLock lk(mu_);
  return notified_;
}

void Notification::WaitForNotification() const {
  MutexLock lk(mu_);
  while (!notified_) cv_.wait(lk);
}

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads_ = ResolveNumThreads(num_threads);
  if (num_threads_ <= 1) {
    num_threads_ = 1;
    return;  // Inline pool: no workers.
  }
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

size_t ThreadPool::ResolveNumThreads(size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("QOCO_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0 &&
        parsed < std::numeric_limits<size_t>::max()) {
      return static_cast<size_t>(parsed);
    }
  }
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Status ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lk(wake_mu_);
    if (shutdown_) {
      return Status::FailedPrecondition(
          "ThreadPool::Submit after Shutdown: the pool no longer accepts "
          "work");
    }
    if (!workers_.empty()) {
      queue_.push_back(std::move(task));
      ++submitted_total_;
      wake_cv_.notify_one();
      return Status::OK();
    }
    ++submitted_total_;
  }
  // Inline pool: run on the caller. The completion is published after the
  // fact so Wait() and the audit see submitted == completed at quiescence.
  task();
  MutexLock lk(wake_mu_);
  ++completed_total_;
  done_cv_.notify_all();
  return Status::OK();
}

void ThreadPool::WorkerLoop() {
  MutexLock lk(wake_mu_);
  for (;;) {
    // Explicit wait loop (not the predicate overload): the predicate reads
    // guarded members, and a plain loop keeps those reads visibly inside
    // the locked region for clang's thread-safety analysis.
    while (!shutdown_ && queue_.empty()) wake_cv_.wait(lk);
    if (queue_.empty()) return;  // Shut down and drained.
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    lk.unlock();
    task();
    lk.lock();
    --running_;
    ++completed_total_;
    if (queue_.empty() && running_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::Wait() {
  MutexLock lk(wake_mu_);
  while (!queue_.empty() || running_ != 0) done_cv_.wait(lk);
}

void ThreadPool::Shutdown() {
  {
    MutexLock lk(wake_mu_);
    shutdown_ = true;
    wake_cv_.notify_all();
  }
  // workers_ itself is immutable after construction (joined threads stay in
  // the vector, non-joinable), so unsynchronized emptiness reads elsewhere
  // are safe; a second Shutdown finds nothing joinable and returns.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

Status ThreadPool::AuditInvariants() const {
  MutexLock lk(wake_mu_);
  InvariantAuditor audit("common::ThreadPool");

  if (completed_total_ + running_ + queue_.size() != submitted_total_) {
    audit.Violation() << "task accounting leaks: submitted="
                      << submitted_total_ << " != completed="
                      << completed_total_ << " + running=" << running_
                      << " + queued=" << queue_.size();
  }
  if ((shutdown_ || workers_.empty()) && !queue_.empty()) {
    audit.Violation() << (shutdown_ ? "shut-down" : "inline")
                      << " pool still holds " << queue_.size()
                      << " queued task(s)";
  }
  return audit.Finish();
}

}  // namespace qoco::common
