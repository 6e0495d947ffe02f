// Monotonic wall-clock timer for algorithm running-time measurements
// (paper Table 6).
#pragma once

#include <chrono>

namespace tgs {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last reset.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tgs
