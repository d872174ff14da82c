// gl-analyze-expect: GL008
//
// A class owns a mutex but names nothing it guards.

#include <mutex>
class Cache {
 public:
  void Put(int v);
 private:
  std::mutex mu_;
  int last_ = 0;
};
