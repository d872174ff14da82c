// gl-analyze-expect: GL002
//
// std engines and distributions have library-specific bit-streams.

#include <random>
double f() {
  std::mt19937 gen(42);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(gen);
}
