// gl-analyze-expect: clean
//
// The guarded member names its mutex.

#include "common/mutex.h"
#include "common/thread_annotations.h"
class Cache {
 public:
  void Put(int v);
 private:
  gl::Mutex mu_;
  int last_ GL_GUARDED_BY(mu_) = 0;
};
