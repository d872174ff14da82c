// gl-analyze-expect: clean
//
// Declarations and definitions that are not variables.

namespace gl {
struct Options;
using Id = int;
int CountThings(const Options& opts);
double Weigh(double x) { return x * 2.0; }
}
