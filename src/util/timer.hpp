#pragma once
/// \file timer.hpp
/// \brief Wall-clock stopwatch. Per-kernel time breakdowns (the paper's
/// Fig. 8 Gram/Evecs/TTM stacks) come from obs::Span, not from here.

#include <chrono>

namespace ptucker::util {

/// Simple steady-clock stopwatch.
class Timer {
 public:
  Timer() { reset(); }

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ptucker::util
