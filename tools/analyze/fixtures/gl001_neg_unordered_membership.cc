// gl-analyze-expect: clean
//
// Membership tests never observe the iteration order.

#include <unordered_set>
int f() {
  std::unordered_set<int> seen;
  seen.insert(3);
  return static_cast<int>(seen.count(3));
}
