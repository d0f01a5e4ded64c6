#ifndef QOCO_COMMON_THREAD_SAFETY_H_
#define QOCO_COMMON_THREAD_SAFETY_H_

#include <mutex>

/// Thread-safety annotation macros plus the annotated synchronization
/// primitives (Mutex, MutexLock) the codebase locks with.
///
/// Two independent checkers consume these annotations:
///
///  * clang's `-Wthread-safety` analysis (the CI `analyze` job compiles the
///    library with `-Werror=thread-safety`), for which the macros expand to
///    the underlying attributes; under GCC they expand to nothing.
///  * `tools/analyzer/qoco-analyze` (rule `guarded-by`), which re-checks the
///    same contract tokenizer-side on every compiler: a member annotated
///    `QOCO_GUARDED_BY(mu)` may only be touched inside methods that either
///    construct a lock on `mu` or are themselves annotated
///    `QOCO_REQUIRES(mu)`. Constructors and destructors are exempt (the
///    object is not shared yet / any longer), mirroring clang.
///
/// Annotation placement conventions (qoco-analyze parses these forms):
///
///   size_t pending_ QOCO_GUARDED_BY(wake_mu_) = 0;   // after the member name
///   Task Pop(size_t self) QOCO_REQUIRES(wake_mu_);   // after the param list
///   ValueId Intern(const Value& v) QOCO_COORDINATOR_ONLY;  // ditto

#if defined(__clang__)
#define QOCO_TS_ATTR(x) __attribute__((x))
#else
#define QOCO_TS_ATTR(x)  // Thread-safety attributes are a clang analysis.
#endif

#define QOCO_CAPABILITY(name) QOCO_TS_ATTR(capability(name))
#define QOCO_SCOPED_CAPABILITY QOCO_TS_ATTR(scoped_lockable)
#define QOCO_GUARDED_BY(x) QOCO_TS_ATTR(guarded_by(x))
#define QOCO_PT_GUARDED_BY(x) QOCO_TS_ATTR(pt_guarded_by(x))
#define QOCO_REQUIRES(...) QOCO_TS_ATTR(requires_capability(__VA_ARGS__))
#define QOCO_ACQUIRE(...) QOCO_TS_ATTR(acquire_capability(__VA_ARGS__))
#define QOCO_TRY_ACQUIRE(...) QOCO_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#define QOCO_RELEASE(...) QOCO_TS_ATTR(release_capability(__VA_ARGS__))
#define QOCO_EXCLUDES(...) QOCO_TS_ATTR(locks_excluded(__VA_ARGS__))
#define QOCO_NO_THREAD_SAFETY_ANALYSIS QOCO_TS_ATTR(no_thread_safety_analysis)

/// Marks a function that mutates shared coordinator-side state (interning,
/// catalog growth, the edit journal) and therefore must never run on a
/// ThreadPool worker. No compiler semantics — the contract is enforced by
/// qoco-analyze rule `worker-intern`, which flags calls to any function so
/// annotated from inside ThreadPool::Submit argument regions.
#define QOCO_COORDINATOR_ONLY

namespace qoco::common {

/// std::mutex with clang capability annotations so `QOCO_GUARDED_BY`
/// members are checkable. Satisfies Lockable.
class QOCO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QOCO_ACQUIRE() { mu_.lock(); }
  void unlock() QOCO_RELEASE() { mu_.unlock(); }
  bool try_lock() QOCO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex, annotated as a scoped capability. Also satisfies
/// BasicLockable (lowercase lock/unlock) so a std::condition_variable_any
/// can wait on it directly and a holder can drop/retake the lock around a
/// critical region (see ThreadPool::WorkerLoop).
class QOCO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) QOCO_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() QOCO_RELEASE() {
    if (held_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() QOCO_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }
  void unlock() QOCO_RELEASE() {
    held_ = false;
    mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

}  // namespace qoco::common

#endif  // QOCO_COMMON_THREAD_SAFETY_H_
