// gl-analyze-expect: GL007
//
// A mutable counter inside an inline namespace is still a namespace-scope
// global: the scope walker must open the inline namespace as a namespace,
// not skip it as a function body.

namespace gl {
inline namespace v1 {
int g_epoch_counter = 0;
}  // namespace v1
}  // namespace gl
