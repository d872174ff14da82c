// gl-analyze-expect: GL001, GL016
//
// Elements of an unordered map reach the state hash in bucket order: once
// through structured bindings, once through a loop variable's member. The
// hash then differs between runs that differ only in hashing.

#include <unordered_map>

namespace fixture {

class StateHash {
 public:
  void MixU64(unsigned long long v);
};

void Snapshot(StateHash& h,
              const std::unordered_map<int, unsigned long long>& loads) {
  for (const auto& [server, load] : loads) {
    h.MixU64(load);  // <-- GL016: bucket order reaches the hash
  }
  for (const auto& kv : loads) {
    h.MixU64(kv.second);  // <-- GL016: same, through the element's member
  }
}

}  // namespace fixture
