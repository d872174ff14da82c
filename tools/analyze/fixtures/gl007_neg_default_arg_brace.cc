// gl-analyze-expect: clean
//
// A brace default argument is part of a function signature.

namespace gl {
inline int RunAll(const Options& opts = {}, int repartition_interval = 1) {
  return repartition_interval;
}
}
