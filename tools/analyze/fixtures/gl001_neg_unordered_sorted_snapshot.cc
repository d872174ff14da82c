// gl-analyze-expect: clean
//
// Iterating a sorted snapshot (common/stable_map.h) is the sanctioned way.

#include <unordered_map>
#include "common/stable_map.h"
void f() {
  std::unordered_map<int, double> weights;
  for (const auto& [k, v] : gl::SortedItems(weights)) { (void)k; (void)v; }
}
