// gl-analyze-expect: GL001
//
// A local assigned from a function declared to return an unordered map is
// one too: the declaration and the loop are tracked across statements.

#include <unordered_map>
std::unordered_map<int, int> Neighbors();
void f() {
  const auto groups = Neighbors();
  for (const auto& kv : groups) { (void)kv; }
}
