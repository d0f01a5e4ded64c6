#ifndef QOCO_PERFBENCH_OPEN_LOOP_H_
#define QOCO_PERFBENCH_OPEN_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// One open-loop arrival: when it was due and when the generator sent it.
struct Arrival {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
};

/// How far the generator ran behind schedule for `a` (0 when on time).
inline int64_t LatenessNs(const Arrival& a) {
  return a.sent_ns > a.due_ns ? a.sent_ns - a.due_ns : 0;
}

/// Drives `count` arrivals of a fixed-rate open loop: arrival i is due at
/// start_ns + i * period_ns whatever happened before it. For each one the
/// generator sleeps until it is due (`sleep_until`), reads `now` and calls
/// `send(i, due_ns)`. A generator that fell behind sends at once and never
/// skips or shifts an arrival, so a stall shows up as lateness of the
/// arrivals behind it rather than as a lower offered rate. Clock and sleep
/// are injected so tests can script them.
std::vector<Arrival> RunOpenLoop(
    int64_t start_ns, int64_t period_ns, size_t count,
    const std::function<int64_t()>& now,
    const std::function<void(int64_t)>& sleep_until,
    const std::function<void(size_t, int64_t)>& send);

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_OPEN_LOOP_H_
