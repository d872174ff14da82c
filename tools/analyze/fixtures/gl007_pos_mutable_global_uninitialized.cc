// gl-analyze-expect: GL007
//
// Mutable state in an anonymous namespace is still global state.

namespace gl {
namespace {
double last_cut_weight;
}
}
