// gl-analyze-expect: GL006
//
// Detaching a thread lets it outlive every ordering guarantee.

#include <thread>
void FireAndForget(std::thread& t) {
  t.detach();
}
