// Wall-clock timing helpers for the engines' per-phase accounting.
#pragma once

#include <chrono>
#include <cstdint>

namespace parulel {

/// Monotonic stopwatch reporting elapsed nanoseconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  double elapsed_ms() const {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Splits one interval into consecutive laps of one clock: lap(sink)
/// adds the time since the previous lap (or construction) to `sink`.
/// No instant falls between two laps, so the sinks sum exactly to the
/// time from construction to the last lap.
class LapTimer {
 public:
  LapTimer() : last_(Clock::now()) {}

  void lap(std::uint64_t& sink) {
    const Clock::time_point now = Clock::now();
    sink += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count());
    last_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point last_;
};

/// Accumulates elapsed time of a phase into a counter on destruction.
class ScopedAccumulator {
 public:
  explicit ScopedAccumulator(std::uint64_t& sink) : sink_(sink) {}
  ScopedAccumulator(const ScopedAccumulator&) = delete;
  ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;
  ~ScopedAccumulator() { sink_ += timer_.elapsed_ns(); }

 private:
  std::uint64_t& sink_;
  Timer timer_;
};

}  // namespace parulel
