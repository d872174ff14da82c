// gl-analyze-expect: GL001
//
// An iterator loop from .begin() walks the buckets just like a range-for.

#include <unordered_set>
void f() {
  std::unordered_set<int> seen;
  for (auto it = seen.begin(); it != seen.end(); ++it) { (void)*it; }
}
