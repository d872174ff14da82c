// Sample statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

namespace epochbench {

// Median of a non-empty sample set (mean of the middle pair for even sizes).
double Median(std::span<const double> samples);

// Arithmetic mean of a non-empty sample set.
double Mean(std::span<const double> samples);

// A tail percentile chosen so that enough samples lie beyond it to make it
// more than one outlier.
struct Tail {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;       // nearest-rank sample at that percentile
  std::size_t beyond = 0;   // samples ranked after it
};

// Samples that must rank after a reported tail percentile.
inline constexpr std::size_t kMinSamplesBeyondTail = 10;

// The highest of p99.9, p99, p95 and p90 (nearest-rank) with at least
// kMinSamplesBeyondTail samples ranked after it; nullopt when none
// qualifies (fewer than 100 samples). Never zero-filled.
std::optional<Tail> SelectTail(std::span<const double> samples);

}  // namespace epochbench
