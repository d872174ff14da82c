// gl-analyze-expect: clean
//
// The same loops over an ordered map: iteration follows key order, so
// structured bindings and members of the loop variable are deterministic.

#include <map>

namespace fixture {

class StateHash {
 public:
  void MixU64(unsigned long long v);
};

void Snapshot(StateHash& h, const std::map<int, unsigned long long>& loads) {
  for (const auto& [server, load] : loads) {
    h.MixU64(load);
  }
  for (const auto& kv : loads) {
    h.MixU64(kv.second);
  }
}

}  // namespace fixture
