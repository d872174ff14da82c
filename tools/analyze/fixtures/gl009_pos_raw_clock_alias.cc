// gl-analyze-expect: GL009
//
// Naming a raw std::chrono clock is enough: the alias is the leak.

#include <chrono>
using Clock = std::chrono::high_resolution_clock;
Clock::duration Zero() { return {}; }
