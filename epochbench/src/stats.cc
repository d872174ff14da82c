#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace epochbench {

double Median(std::span<const double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Mean(std::span<const double> samples) {
  if (samples.empty()) throw std::invalid_argument("mean of no samples");
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::optional<Tail> SelectTail(std::span<const double> samples) {
  const std::size_t n = samples.size();
  std::vector<double> sorted;
  for (const double p : {99.9, 99.0, 95.0, 90.0}) {
    // Nearest rank: the smallest sample with at least p% of the set at or
    // below it, at 1-based rank ceil(n·p/100).
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9));
    if (rank == 0 || n - rank < kMinSamplesBeyondTail) continue;
    if (sorted.empty()) {
      sorted.assign(samples.begin(), samples.end());
      std::sort(sorted.begin(), sorted.end());
    }
    return Tail{.percentile = p, .value = sorted[rank - 1], .beyond = n - rank};
  }
  return std::nullopt;
}

}  // namespace epochbench
