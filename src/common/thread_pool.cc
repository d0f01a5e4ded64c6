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
    return;  // Inline pool: no queues, no workers.
  }
  queues_.resize(num_threads_);
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
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
      queues_[next_queue_].tasks.push_back(std::move(task));
      next_queue_ = (next_queue_ + 1) % queues_.size();
      ++pending_;
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

std::function<void()> ThreadPool::PopTaskLocked(size_t self) {
  // Own deque first, from the front (FIFO for fairness of Submit order)...
  std::deque<std::function<void()>>& own = queues_[self].tasks;
  std::function<void()> task;
  if (!own.empty()) {
    task = std::move(own.front());
    own.pop_front();
  } else {
    // ...then steal from the back of the first non-empty victim.
    for (size_t step = 1; step < queues_.size(); ++step) {
      std::deque<std::function<void()>>& victim =
          queues_[(self + step) % queues_.size()].tasks;
      if (victim.empty()) continue;
      task = std::move(victim.back());
      victim.pop_back();
      break;
    }
  }
  if (task) {
    --pending_;
    ++running_;
  }
  return task;
}

void ThreadPool::WorkerLoop(size_t self) {
  MutexLock lk(wake_mu_);
  for (;;) {
    // Explicit wait loop (not the predicate overload): the predicate reads
    // guarded members, and a plain loop keeps those reads visibly inside
    // the locked region for clang's thread-safety analysis.
    while (!shutdown_ && pending_ == 0) wake_cv_.wait(lk);
    if (pending_ == 0) {
      if (shutdown_) return;  // Drained; exit only once nothing is queued.
      continue;
    }
    std::function<void()> task = PopTaskLocked(self);
    if (!task) continue;  // Another worker won the race.
    lk.unlock();
    task();
    lk.lock();
    --running_;
    ++completed_total_;
    if (pending_ == 0 && running_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::Wait() {
  MutexLock lk(wake_mu_);
  while (pending_ != 0 || running_ != 0) done_cv_.wait(lk);
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

  size_t queued = 0;
  for (const WorkerQueue& q : queues_) queued += q.tasks.size();
  if (queued != pending_) {
    audit.Violation() << "pending counter is " << pending_ << " but queues "
                      << "hold " << queued << " task(s)";
  }
  if (completed_total_ + running_ + pending_ != submitted_total_) {
    audit.Violation() << "task accounting leaks: submitted="
                      << submitted_total_ << " != completed="
                      << completed_total_ << " + running=" << running_
                      << " + pending=" << pending_;
  }
  if (running_ > workers_.size()) {
    audit.Violation() << running_ << " task(s) marked running on "
                      << workers_.size() << " worker(s)";
  }
  if (shutdown_ && pending_ != 0) {
    audit.Violation() << "shut-down pool still holds " << pending_
                      << " queued task(s)";
  }
  if (workers_.empty() && !shutdown_ && pending_ != 0) {
    audit.Violation() << "inline pool reports " << pending_
                      << " pending task(s)";
  }
  return audit.Finish();
}

}  // namespace qoco::common
