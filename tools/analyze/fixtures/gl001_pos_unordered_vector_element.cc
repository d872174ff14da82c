// gl-analyze-expect: GL001
//
// A vector of unordered maps: iterating one element is unordered iteration.

#include <unordered_map>
#include <vector>
void f() {
  std::vector<std::unordered_map<int, int>> votes(4);
  for (const auto& [old, n] : votes[0]) { (void)old; (void)n; }
}
