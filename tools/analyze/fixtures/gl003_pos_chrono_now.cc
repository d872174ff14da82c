// gl-analyze-expect: GL003, GL009
//
// A raw steady_clock read is both a timer value and a raw clock.

#include <chrono>
long f() {
  const auto t = std::chrono::steady_clock::now();
  return t.time_since_epoch().count();
}
