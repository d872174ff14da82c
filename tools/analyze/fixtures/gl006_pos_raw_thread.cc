// gl-analyze-expect: GL006
//
// A raw std::thread outside common/thread_pool.

#include <thread>
void Launch() {
  std::thread worker([] {});
  worker.join();
}
