#include "perfbench/open_loop.h"

namespace perfbench {

std::vector<Arrival> RunOpenLoop(
    int64_t start_ns, int64_t period_ns, size_t count,
    const std::function<int64_t()>& now,
    const std::function<void(int64_t)>& sleep_until,
    const std::function<void(size_t, int64_t)>& send) {
  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(i) * period_ns;
    if (now() < due) sleep_until(due);
    arrivals.push_back({due, now()});
    send(i, due);
  }
  return arrivals;
}

}  // namespace perfbench
