// gl-analyze-expect: GL004
//
// A map keyed on pointers orders its entries by allocation address.

#include <map>
struct Node;
void f() {
  std::map<Node*, int> depth;
  (void)depth;
}
