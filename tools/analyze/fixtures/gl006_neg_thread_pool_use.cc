// gl-analyze-expect: clean
//
// Fanning out through ThreadPool::ParallelFor.

#include "common/thread_pool.h"
void Fan(gl::ThreadPool& pool) {
  pool.ParallelFor(8, [](std::size_t) {});
}
