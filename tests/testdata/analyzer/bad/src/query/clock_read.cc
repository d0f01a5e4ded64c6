// Fixture: clock-read must fire exactly once (a std::chrono clock read in a
// src/query/ file, inside the determinism surface).
#include <chrono>

namespace qoco::query {

double ElapsedSeconds(std::chrono::duration<double> since_epoch) {
  return (std::chrono::steady_clock::now().time_since_epoch() - since_epoch)
      .count();
}

}  // namespace qoco::query
