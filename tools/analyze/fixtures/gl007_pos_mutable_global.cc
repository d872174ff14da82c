// gl-analyze-expect: GL007
//
// A mutable namespace-scope counter.

namespace gl {
int g_epoch_counter = 0;
}
