// The sanctioned monotonic clock (the only home for raw std::chrono timers).
//
// Wall-clock values are poison for determinism (DESIGN.md §8): a timestamp
// that feeds a seed or a decision makes the run unreplayable. But a system
// that is meant to run "as fast as the hardware allows" still has to be
// *measured*, and measurement needs a clock. This header is the compromise:
// the one place raw std::chrono::steady_clock may be touched (gl_analyze
// GL009 flags it anywhere else; the baseline blesses it here), exporting
// timer types whose values are
// informational only — they may be printed, logged and plotted, but must
// never feed simulation state, seeds, or the §8 state hashes.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace gl::obs {

// Microseconds on the process-wide monotonic clock. Informational only.
[[nodiscard]] inline std::int64_t MonotonicMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Microseconds of CPU time consumed by the calling thread. Informational
// only, like the wall clock above. Distinct from MonotonicMicros on an
// oversubscribed machine: a thread timesliced out accrues wall time but no
// CPU time, so span CPU deltas measure inherent work, immune to interleave
// stretching (obs/profile.h charges critical-path steps with these).
[[nodiscard]] inline std::int64_t ThreadCpuMicros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1000;
#else
  return MonotonicMicros();  // degraded: wall approximates cpu
#endif
}

// Elapsed-time stopwatch: starts at construction, reads in milliseconds.
class WallTimer {
 public:
  WallTimer() : start_us_(MonotonicMicros()) {}

  void Reset() { start_us_ = MonotonicMicros(); }

  [[nodiscard]] double ElapsedMs() const {
    return static_cast<double>(MonotonicMicros() - start_us_) / 1000.0;
  }
  [[nodiscard]] double ElapsedUs() const {
    return static_cast<double>(MonotonicMicros() - start_us_);
  }

 private:
  std::int64_t start_us_;
};

}  // namespace gl::obs
