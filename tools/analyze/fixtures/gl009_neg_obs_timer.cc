// gl-analyze-expect: clean
//
// Timing through obs::WallTimer (obs/clock.h) is the sanctioned way.

#include "obs/clock.h"
double ElapsedPhaseMs(const gl::obs::WallTimer& t) {
  return t.ElapsedMs();
}
