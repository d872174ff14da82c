// gl-analyze-expect: GL001
//
// A range-for over an unordered_map follows hash-bucket order.

#include <unordered_map>
void f() {
  std::unordered_map<int, double> weights;
  for (const auto& [k, v] : weights) { (void)k; (void)v; }
}
