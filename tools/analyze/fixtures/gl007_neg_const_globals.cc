// gl-analyze-expect: clean
//
// const / constexpr namespace-scope values are immutable.

namespace gl {
constexpr double kEps = 1e-9;
const int kMaxRetries = 4;
inline constexpr int kWidth = 80;
}
