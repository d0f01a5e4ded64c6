#ifndef QOCO_SERVICE_CLOCK_H_
#define QOCO_SERVICE_CLOCK_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/thread_safety.h"

namespace qoco::service {

/// Logical time of the service layer. RealtimeClock counts microseconds;
/// FakeClock counts whatever the test script says.
using Tick = uint64_t;

/// Time source + timer queue behind every latency-sensitive service
/// decision (question timeouts, retry backoff, latency accounting). The
/// broker never reads wall-clock time directly: tests drive a FakeClock so
/// interleavings are scripted and replayable, production uses
/// RealtimeClock.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time.
  virtual Tick Now() = 0;

  /// Schedules `fn` to run at time `when`. A deadline in the past (or now)
  /// runs `fn` inline before RunAt returns; otherwise `fn` runs when time
  /// reaches `when` — on the advancing thread for FakeClock, on the timer
  /// thread for RealtimeClock. `fn` may call back into the clock.
  virtual void RunAt(Tick when, std::function<void()> fn) = 0;
};

/// Deterministic manual clock for the service test harness. Time advances
/// only when a driver calls AdvanceTo/AdvanceBy; due tasks run on the
/// advancing thread in (deadline, schedule order) — a total order, so a
/// scripted schedule replays identically every run. No sleeps, no
/// wall-clock anywhere.
class FakeClock : public Clock {
 public:
  Tick Now() override;
  void RunAt(Tick when, std::function<void()> fn) override;

  /// Runs every task due at or before `t` in (deadline, seq) order, setting
  /// Now() to each task's deadline while it runs, then to `t`. Tasks
  /// scheduled during the advance at deadlines <= `t` also run.
  void AdvanceTo(Tick t);
  void AdvanceBy(Tick delta) { AdvanceTo(Now() + delta); }

  /// Deadline of the earliest pending task, if any.
  std::optional<Tick> NextDue();

  /// Advances to the earliest pending deadline. Returns false (and leaves
  /// time unchanged) when nothing is pending.
  bool AdvanceToNextDue();

  /// Number of scheduled-but-not-yet-run tasks.
  size_t PendingTasks();

  /// Observer invoked (outside the clock lock) after each *deferred*
  /// schedule, i.e. every RunAt that did not run inline. The test driver
  /// uses it as a wake-up signal: "some component is now waiting on time".
  void SetScheduleObserver(std::function<void()> observer);

 private:
  common::Mutex mu_;
  Tick now_ QOCO_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ QOCO_GUARDED_BY(mu_) = 0;
  std::map<std::pair<Tick, uint64_t>, std::function<void()>> tasks_
      QOCO_GUARDED_BY(mu_);
  std::function<void()> schedule_observer_ QOCO_GUARDED_BY(mu_);
};

/// Wall-clock implementation: Now() is microseconds since construction
/// (steady), RunAt dispatches from a dedicated timer thread. Used by
/// perfbench's service workload and any real deployment of the service
/// layer.
class RealtimeClock : public Clock {
 public:
  RealtimeClock();
  ~RealtimeClock() override;

  Tick Now() override;
  void RunAt(Tick when, std::function<void()> fn) override;

 private:
  void TimerLoop();

  const std::chrono::steady_clock::time_point epoch_;
  common::Mutex mu_;
  std::condition_variable_any cv_;
  bool shutdown_ QOCO_GUARDED_BY(mu_) = false;
  uint64_t next_seq_ QOCO_GUARDED_BY(mu_) = 0;
  std::map<std::pair<Tick, uint64_t>, std::function<void()>> tasks_
      QOCO_GUARDED_BY(mu_);
  std::thread timer_;
};

}  // namespace qoco::service

#endif  // QOCO_SERVICE_CLOCK_H_
