#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics.h"
#include "reference.h"
#include "stats.h"
#include "traced_loop.h"
#include "workloads.h"

namespace epochbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(SelectTail, AbsentBelowOneHundredSamples) {
  EXPECT_FALSE(SelectTail({}).has_value());
  EXPECT_FALSE(SelectTail(OneTo(11)).has_value());
  EXPECT_FALSE(SelectTail(OneTo(99)).has_value());
}

TEST(SelectTail, PicksHighestPercentileWithTenBeyond) {
  struct Case {
    int n;
    double percentile;
    double value;
    std::size_t beyond;
  };
  for (const Case c : {Case{100, 90.0, 90.0, 10}, Case{199, 90.0, 180.0, 19},
                       Case{200, 95.0, 190.0, 10}, Case{999, 95.0, 950.0, 49},
                       Case{1000, 99.0, 990.0, 10},
                       Case{9999, 99.0, 9900.0, 99},
                       Case{10000, 99.9, 9990.0, 10}}) {
    const auto tail = SelectTail(OneTo(c.n));
    ASSERT_TRUE(tail.has_value()) << c.n;
    EXPECT_EQ(tail->percentile, c.percentile) << c.n;
    EXPECT_EQ(tail->value, c.value) << c.n;
    EXPECT_EQ(tail->beyond, c.beyond) << c.n;
    EXPECT_GE(tail->beyond, kMinSamplesBeyondTail);
  }
}

TEST(SelectTail, IndependentOfSampleOrder) {
  std::vector<double> v = OneTo(1000);
  std::mt19937 rng(7);
  std::shuffle(v.begin(), v.end(), rng);
  const auto tail = SelectTail(v);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->value, 990.0);
}

TEST(Stats, MedianAndMean) {
  EXPECT_EQ(Median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Mean(std::vector<double>{1.0, 2.0, 6.0}), 3.0);
  EXPECT_THROW(Median(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Mean(std::vector<double>{}), std::invalid_argument);
}

TEST(MetricNames, RulesAcceptAndReject) {
  EXPECT_TRUE(IsValidMetricName("a"));
  EXPECT_TRUE(IsValidMetricName("0x"));
  EXPECT_TRUE(IsValidMetricName("core.place_ms"));
  EXPECT_TRUE(IsValidMetricName("a-b.c_d"));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'x')));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("_a"));
  EXPECT_FALSE(IsValidMetricName(".a"));
  EXPECT_FALSE(IsValidMetricName("a b"));
  EXPECT_FALSE(IsValidMetricName("a/b"));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'x')));

  EXPECT_TRUE(IsValidUnit("ms"));
  EXPECT_TRUE(IsValidUnit("1/s"));
  EXPECT_TRUE(IsValidUnit("%"));
  EXPECT_TRUE(IsValidUnit(std::string(16, 'u')));
  EXPECT_FALSE(IsValidUnit(""));
  EXPECT_FALSE(IsValidUnit("m s"));
  EXPECT_FALSE(IsValidUnit(std::string(17, 'u')));
}

TEST(MetricNames, DeclaredTablesAreValidAndUnique) {
  std::set<std::string_view> seen;
  for (const auto table : {std::span<const MetricSpec>(kEndToEnd),
                           std::span<const MetricSpec>(kPerLayer)}) {
    for (const auto& spec : table) {
      EXPECT_TRUE(IsValidMetricName(spec.name)) << spec.name;
      EXPECT_TRUE(IsValidUnit(spec.unit)) << spec.name;
      EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    }
  }
  EXPECT_LE(std::size(kEndToEnd), 16u);
  EXPECT_LE(std::size(kPerLayer), 128u);
  // setup_s is part of the end-to-end contract.
  EXPECT_TRUE(seen.count("setup_s"));
}

TEST(MetricNames, EveryLayerStemIsDeclared) {
  for (const auto stem : kLayerStems) {
    for (const char* suffix : {"_ms", "_share"}) {
      const std::string name = std::string(stem) + suffix;
      const bool declared =
          std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                      [&](const MetricSpec& s) { return s.name == name; });
      EXPECT_TRUE(declared) << name;
    }
  }
}

TEST(ResultLine, EmitsOnlyDeclaredFiniteMetrics) {
  Result result(kEndToEnd);
  EXPECT_THROW(result.Add("not_declared", 1.0, "x"), std::logic_error);
  EXPECT_THROW(result.Add("setup_s", std::nan(""), "x"), std::logic_error);
  result.Add("setup_s", 0.5, "x");
  const auto missing = result.Missing();
  EXPECT_EQ(missing.size(), std::size(kEndToEnd) - 1);
  EXPECT_EQ(std::count(missing.begin(), missing.end(), "setup_s"), 0);
  EXPECT_EQ(result.JsonLine(true, 3, 0),
            R"({"correct":true,"attempted":3,"failed":0,"metrics":)"
            R"({"setup_s":{"value":0.5,"unit":"s"}}})");
}

TEST(CompareEpochs, IdenticalStreamsAgree) {
  std::vector<gl::EpochMetrics> a(3);
  for (int i = 0; i < 3; ++i) {
    a[static_cast<std::size_t>(i)].epoch = i;
    a[static_cast<std::size_t>(i)].total_watts = 100.0 + i;
  }
  auto b = a;
  b[1].wall_ms = 99.0;  // host time is not a simulated field
  EXPECT_TRUE(CompareEpochs(a, b).empty());
}

TEST(CompareEpochs, OneUlpOfPowerIsADifference) {
  std::vector<gl::EpochMetrics> a(2);
  a[1].epoch = 1;
  a[1].total_watts = 250.0;
  auto b = a;
  b[1].total_watts = std::nextafter(250.0, 300.0);
  const auto diffs = CompareEpochs(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("total_watts"), std::string::npos);
  b.pop_back();
  EXPECT_FALSE(CompareEpochs(a, b).empty());
}

// The traced loop must reproduce ExperimentRunner::Run exactly, and the
// equality check must fire when the loop is fed a different placement.
TEST(TracedLoop, MatchesRunnerAndCatchesADifferentPlacement) {
  const auto w = BuildWorkload("azure_churn", 1, 1);
  const Instance& inst = w->instances.front();
  gl::GoldilocksScheduler scheduler(inst.goldilocks);
  const gl::ExperimentResult reference = inst.runner->Run(scheduler);

  const TracedRun same = RunTraced(*w, inst, inst.goldilocks);
  EXPECT_TRUE(CompareEpochs(reference.epochs, same.epochs).empty());
  EXPECT_TRUE(same.failures.empty())
      << (same.failures.empty() ? "" : same.failures.front());
  EXPECT_EQ(same.counts.audits, inst.scenario->num_epochs());
  EXPECT_EQ(same.counts.repartitions, inst.scenario->num_epochs());
  EXPECT_GT(same.counts.groups, 0);

  gl::GoldilocksOptions tighter = inst.goldilocks;
  tighter.pee_utilization = 0.5;
  const TracedRun other = RunTraced(*w, inst, tighter);
  EXPECT_FALSE(CompareEpochs(reference.epochs, other.epochs).empty());
}

TEST(TracedLoop, RepairEpochsMatchTheScheduler) {
  const auto w = BuildWorkload("vc_reuse", 1, 1);
  const Instance& inst = w->instances.front();
  const TracedRun run = RunTraced(*w, inst, inst.goldilocks);
  EXPECT_TRUE(run.failures.empty())
      << (run.failures.empty() ? "" : run.failures.front());
  EXPECT_GT(run.counts.repairs, 0);
  EXPECT_GT(run.counts.partition_cache_hits, 0u);
}

// The end-to-end timings are divided by the reference kernel's time, so the
// kernel must do the same work on every run.
TEST(ReferenceKernel, SameWorkEveryRun) {
  const ReferenceTiming a = RunReferenceKernel();
  const ReferenceTiming b = RunReferenceKernel();
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_NE(a.checksum, 0u);
  EXPECT_GT(a.ms, 0.0);
  EXPECT_GT(b.ms, 0.0);
}

TEST(Workloads, SeedsDeriveDeterministically) {
  EXPECT_EQ(DeriveSeed(5, 1), DeriveSeed(5, 1));
  EXPECT_NE(DeriveSeed(5, 1), DeriveSeed(5, 2));
  EXPECT_NE(DeriveSeed(5, 1), DeriveSeed(6, 1));
  EXPECT_THROW(BuildWorkload("nope", 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace epochbench
