// gl-analyze-expect: clean
//
// The state hash only sees deterministic data (a container count); the
// clock reading exists but flows to a plain log helper, not a hash or
// deterministic-counter sink.

#include <vector>

namespace fixture {

class StateHash {
 public:
  void MixU64(unsigned long long v);
};

void LogWallTime(unsigned long long t);

unsigned long long TickStamp() {
  const unsigned long long t = obs::MonotonicMicros();
  return t;
}

void Snapshot(StateHash& h, const std::vector<double>& loads) {
  const unsigned long long placed = loads.size();
  h.MixU64(placed);            // count data: deterministic
  LogWallTime(TickStamp());    // tainted, but a log is not a sink
}

}  // namespace fixture
