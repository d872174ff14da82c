#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"

namespace gl {

void RunningStats::Add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

void RunningStats::Merge(const RunningStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(o.n_);
  m2_ += o.m2_ + delta * delta * n * m / (n + m);
  mean_ = (n * mean_ + m * o.mean_) / (n + m);
  n_ += o.n_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void RunningStats::Reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentile(std::span<const double> xs, double p) {
  GOLDILOCKS_CHECK(p >= 0.0 && p <= 100.0);
  if (xs.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // Only the k = n − lo largest values matter: sorted descending, the last
  // of them is the lo-th order statistic and the one before it the next.
  std::vector<double> top(xs.size() - lo);
  std::partial_sort_copy(xs.begin(), xs.end(), top.begin(), top.end(),
                         std::greater<>());
  const double v_lo = top.back();
  const double v_hi = top.size() > 1 ? top[top.size() - 2] : v_lo;
  return v_lo + (v_hi - v_lo) * frac;
}

double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys) {
  GOLDILOCKS_CHECK(xs.size() == ys.size());
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  GOLDILOCKS_CHECK(hi > lo && bins > 0);
}

void Histogram::Add(double x) {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::ptrdiff_t>((x - lo_) / w);
  bin = std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::count(std::size_t bin) const {
  GOLDILOCKS_CHECK_LT(bin, counts_.size());
  return counts_[bin];
}

double Histogram::bin_low(std::size_t bin) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + w * static_cast<double>(bin);
}

double Histogram::bin_high(std::size_t bin) const {
  return bin_low(bin + 1);
}

double Histogram::share(std::size_t bin) const {
  return total_ ? static_cast<double>(count(bin)) /
                      static_cast<double>(total_)
                : 0.0;
}

std::vector<std::pair<double, double>> EmpiricalCdf(
    std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  std::vector<std::pair<double, double>> cdf;
  const auto n = static_cast<double>(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const bool last_of_value = (i + 1 == v.size()) || (v[i + 1] != v[i]);
    if (last_of_value) {
      cdf.emplace_back(v[i], static_cast<double>(i + 1) / n);
    }
  }
  return cdf;
}

}  // namespace gl
