#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace gl {
namespace {

// --- ids ---------------------------------------------------------------------

TEST(Ids, DefaultIsInvalid) {
  ContainerId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, ContainerId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  ServerId s{42};
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.value(), 42);
}

TEST(Ids, Ordering) {
  EXPECT_LT(ServerId{1}, ServerId{2});
  EXPECT_EQ(ServerId{3}, ServerId{3});
  EXPECT_NE(ServerId{3}, ServerId{4});
}

TEST(Ids, Hashable) {
  std::hash<ServerId> h;
  EXPECT_EQ(h(ServerId{7}), h(ServerId{7}));
}

// --- resource ------------------------------------------------------------------

TEST(Resource, Arithmetic) {
  Resource a{.cpu = 10, .mem_gb = 2, .net_mbps = 100};
  Resource b{.cpu = 5, .mem_gb = 1, .net_mbps = 50};
  const Resource sum = a + b;
  EXPECT_DOUBLE_EQ(sum.cpu, 15);
  EXPECT_DOUBLE_EQ(sum.mem_gb, 3);
  EXPECT_DOUBLE_EQ(sum.net_mbps, 150);
  const Resource diff = sum - b;
  EXPECT_DOUBLE_EQ(diff.cpu, a.cpu);
  const Resource scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled.cpu, 20);
}

TEST(Resource, FitsIn) {
  Resource demand{.cpu = 50, .mem_gb = 4, .net_mbps = 100};
  Resource cap{.cpu = 100, .mem_gb = 8, .net_mbps = 1000};
  EXPECT_TRUE(demand.FitsIn(cap));
  demand.mem_gb = 9.0;
  EXPECT_FALSE(demand.FitsIn(cap));
}

TEST(Resource, FitsInToleratesFloatNoise) {
  Resource demand{.cpu = 100.0 + 1e-9, .mem_gb = 0, .net_mbps = 0};
  Resource cap{.cpu = 100, .mem_gb = 8, .net_mbps = 100};
  EXPECT_TRUE(demand.FitsIn(cap));
}

TEST(Resource, WithinCapExactEpsilonBoundary) {
  // The sanctioned threshold is cap*(1+eps) + eps, computed here exactly
  // the way WithinCap computes it: at the threshold a value fits, one ulp
  // above it does not.
  const double cap = 1.0;
  const double limit = cap * (1.0 + kResourceEps) + kResourceEps;
  EXPECT_TRUE(WithinCap(limit, cap));
  EXPECT_TRUE(WithinCap(std::nextafter(limit, 0.0), cap));
  EXPECT_FALSE(WithinCap(std::nextafter(limit, 2.0), cap));
}

TEST(Resource, WithinCapZeroCapacity) {
  // With cap = 0 only the absolute slack remains: kResourceEps of demand
  // still "fits", anything above it does not.
  EXPECT_TRUE(WithinCap(0.0, 0.0));
  EXPECT_TRUE(WithinCap(kResourceEps, 0.0));
  EXPECT_FALSE(WithinCap(std::nextafter(kResourceEps, 1.0), 0.0));
  EXPECT_FALSE(WithinCap(2.0 * kResourceEps, 0.0));
}

TEST(Resource, WithinCapNegativeCapacity) {
  // A negative capacity shrinks the relative slack instead of growing it
  // (cap*(1+eps) moves away from zero), so the boundary still sits exactly
  // where the formula puts it — values below fit, values above do not.
  const double cap = -1.0;
  const double limit = cap * (1.0 + kResourceEps) + kResourceEps;
  EXPECT_TRUE(WithinCap(limit, cap));
  EXPECT_FALSE(WithinCap(std::nextafter(limit, 0.0), cap));
  EXPECT_TRUE(WithinCap(-1.5, cap));   // deeper deficit is "within"
  EXPECT_FALSE(WithinCap(-0.5, cap));  // less deficit is not
}

TEST(Resource, ApproxEqEpsilonBoundary) {
  // diff <= mag*eps + eps with mag = max(|a|, |b|). Near zero the absolute
  // term alone governs; at large magnitudes the relative term dominates.
  EXPECT_TRUE(ApproxEq(0.0, kResourceEps));
  EXPECT_FALSE(ApproxEq(0.0, 2.0 * kResourceEps));
  EXPECT_TRUE(ApproxEq(1.0, std::nextafter(1.0, 2.0)));
  const double big = 1e9;
  EXPECT_TRUE(ApproxEq(big, big * (1.0 + kResourceEps)));
  EXPECT_FALSE(ApproxEq(big, big * (1.0 + 3.0 * kResourceEps)));
  // Symmetric in its arguments, and sign-mirrored.
  EXPECT_TRUE(ApproxEq(kResourceEps, 0.0));
  EXPECT_FALSE(ApproxEq(2.0 * kResourceEps, 0.0));
  EXPECT_TRUE(ApproxEq(-big, -big * (1.0 + kResourceEps)));
  EXPECT_FALSE(ApproxEq(-big, -big * (1.0 + 3.0 * kResourceEps)));
  // Values straddling zero inside the absolute slack compare equal.
  EXPECT_TRUE(ApproxEq(-kResourceEps / 2.0, kResourceEps / 2.0));
}

TEST(Resource, DominantShare) {
  Resource demand{.cpu = 50, .mem_gb = 6, .net_mbps = 100};
  Resource cap{.cpu = 100, .mem_gb = 8, .net_mbps = 1000};
  EXPECT_DOUBLE_EQ(demand.DominantShare(cap), 0.75);  // memory dominates
}

TEST(Resource, DominantShareZeroCapacityDemanded) {
  Resource demand{.cpu = 1, .mem_gb = 0, .net_mbps = 0};
  Resource cap{.cpu = 0, .mem_gb = 8, .net_mbps = 100};
  EXPECT_GT(demand.DominantShare(cap), 1.0);
}

TEST(Resource, NormalizedL1) {
  Resource demand{.cpu = 50, .mem_gb = 4, .net_mbps = 500};
  Resource ref{.cpu = 100, .mem_gb = 8, .net_mbps = 1000};
  EXPECT_DOUBLE_EQ(demand.NormalizedL1(ref), 1.5);
}

TEST(Resource, IsZero) {
  EXPECT_TRUE(Resource{}.IsZero());
  EXPECT_FALSE((Resource{.cpu = 1, .mem_gb = 0, .net_mbps = 0}).IsZero());
}

TEST(Resource, MaxComponentwise) {
  Resource a{.cpu = 10, .mem_gb = 8, .net_mbps = 1};
  Resource b{.cpu = 5, .mem_gb = 9, .net_mbps = 2};
  const Resource m = Max(a, b);
  EXPECT_DOUBLE_EQ(m.cpu, 10);
  EXPECT_DOUBLE_EQ(m.mem_gb, 9);
  EXPECT_DOUBLE_EQ(m.net_mbps, 2);
}

// --- rng ------------------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Uniform(2.0, 4.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.02);
  EXPECT_GE(s.min(), 2.0);
  EXPECT_LT(s.max(), 4.0);
}

TEST(Rng, NextBelowRange) {
  Rng rng(13);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++seen[static_cast<std::size_t>(rng.NextBelow(10))];
  }
  for (const int c : seen) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
}

TEST(Rng, LogNormalPositive) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(37);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(41);
  Rng child = parent.Fork();
  // The fork and the parent should not produce identical streams.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, KeyedForkDoesNotAdvanceParent) {
  Rng forked(43), untouched(43);
  const auto before = forked.StateHash();
  (void)forked.Fork(0);
  (void)forked.Fork(17);
  EXPECT_EQ(forked.StateHash(), before);
  // The forked parent's future stream is byte-for-byte the untouched one's.
  for (int i = 0; i < 64; ++i) EXPECT_EQ(forked.NextU64(), untouched.NextU64());
}

TEST(Rng, KeyedForkIsReplayStable) {
  Rng parent(47);
  Rng a = parent.Fork(5);
  Rng b = parent.Fork(5);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, KeyedForkStreamsAreIndependent) {
  Rng parent(53);
  // Pairwise: neighbouring ids, id 0 vs parent, and a far-apart pair.
  const std::uint64_t ids[] = {0, 1, 2, 1ULL << 40};
  std::vector<std::vector<std::uint64_t>> streams;
  for (const auto id : ids) {
    Rng s = parent.Fork(id);
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 64; ++i) draws.push_back(s.NextU64());
    streams.push_back(std::move(draws));
  }
  std::vector<std::uint64_t> parent_draws;
  for (int i = 0; i < 64; ++i) parent_draws.push_back(parent.NextU64());
  streams.push_back(std::move(parent_draws));
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      int equal = 0;
      for (int k = 0; k < 64; ++k) {
        if (streams[i][k] == streams[j][k]) ++equal;
      }
      EXPECT_LT(equal, 2) << "streams " << i << " and " << j;
    }
  }
}

// --- stats ---------------------------------------------------------------------

TEST(RunningStats, Basics) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.Gaussian();
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

// Percentile selects instead of sorting; on shuffled input with duplicates
// it must return exactly what the sort-based definition does.
double SortedPercentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

TEST(Percentile, SelectionMatchesSortOnShuffledDuplicates) {
  Rng rng(0x9e7c);
  for (const std::size_t n : {1u, 2u, 3u, 1000u}) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      // Few distinct values so most order statistics are tied.
      xs.push_back(static_cast<double>(rng.NextBelow(n / 4 + 2)) * 0.37);
    }
    for (std::size_t i = xs.size(); i > 1; --i) {
      std::swap(xs[i - 1], xs[rng.NextBelow(i)]);
    }
    for (const double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(Percentile(xs, p)),
                std::bit_cast<std::uint64_t>(SortedPercentile(xs, p)))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceIsZero) {
  std::vector<double> xs{1, 1, 1};
  std::vector<double> ys{1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(xs, ys), 0.0);
}

TEST(HistogramTest, BinsAndShares) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.Add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(h.count(b), 1u);
    EXPECT_DOUBLE_EQ(h.share(b), 0.1);
  }
  EXPECT_DOUBLE_EQ(h.bin_low(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_high(3), 4.0);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-5.0);
  h.Add(9.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(EmpiricalCdfTest, MonotoneAndComplete) {
  std::vector<double> xs{3, 1, 2, 2};
  const auto cdf = EmpiricalCdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.front().first, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
}

// --- table ----------------------------------------------------------------------

TEST(TableTest, RendersAligned) {
  Table t({"name", "value"});
  t.AddRow({"alpha", Table::Num(1.5)});
  t.AddRow({"b", Table::Int(42)});
  const std::string out = t.Render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Int(7), "7");
  EXPECT_EQ(Table::Pct(0.25, 1), "25.0%");
}

}  // namespace
}  // namespace gl
