// gl-analyze-expect: GL003
//
// A seed taken from the wall clock makes the run unreplayable.

#include <ctime>
unsigned long Seed() {
  return static_cast<unsigned long>(time(nullptr));
}
