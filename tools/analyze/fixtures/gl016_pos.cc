// gl-analyze-expect: GL016
//
// A wall-clock reading laundered through a helper still reaches the epoch
// state hash: taint survives the call-return edge of the call graph, so
// hashing the "stamp" makes EpochStateHash differ between identical runs.
// The reading comes from the sanctioned obs/clock.h timer, which GL003 and
// GL009 accept: only the flow into the hash is wrong.

namespace fixture {

class StateHash {
 public:
  void MixU64(unsigned long long v);
};

unsigned long long TickStamp() {
  const unsigned long long t = obs::MonotonicMicros();  // wall time
  return t;
}

void Snapshot(StateHash& h) {
  const unsigned long long stamp = TickStamp();
  h.MixU64(stamp);  // <-- GL016: wall-clock data in the state hash
}

}  // namespace fixture
