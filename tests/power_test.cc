#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "power/server_power.h"
#include "power/spec_population.h"

namespace gl {
namespace {

// --- server power curve -----------------------------------------------------------

TEST(ServerPower, MonotoneIncreasing) {
  const auto m = ServerPowerModel::Dell2018();
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double p = m.Power(i / 100.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(ServerPower, IdleAndMaxEndpoints) {
  const auto m = ServerPowerModel::Dell2018(1000.0);
  EXPECT_DOUBLE_EQ(m.Power(0.0), 350.0);   // 35% idle
  EXPECT_DOUBLE_EQ(m.Power(1.0), 1000.0);  // max at full load
  EXPECT_DOUBLE_EQ(m.max_watts(), 1000.0);
}

TEST(ServerPower, ClampsUtilization) {
  const auto m = ServerPowerModel::Dell2018();
  EXPECT_DOUBLE_EQ(m.Power(-0.5), m.Power(0.0));
  EXPECT_DOUBLE_EQ(m.Power(1.5), m.Power(1.0));
}

TEST(ServerPower, LinearBelowPee) {
  const auto m = ServerPowerModel::Dell2018(1000.0);
  // Below the PEE point increments are constant (pure frequency scaling).
  const double d1 = m.Power(0.2) - m.Power(0.1);
  const double d2 = m.Power(0.6) - m.Power(0.5);
  EXPECT_NEAR(d1, d2, 1e-9);
}

TEST(ServerPower, SuperlinearAbovePee) {
  const auto m = ServerPowerModel::Dell2018(1000.0);
  // Beyond PEE the marginal power grows (V and f both scale).
  const double d_low = m.Power(0.75) - m.Power(0.70);
  const double d_high = m.Power(1.00) - m.Power(0.95);
  EXPECT_GT(d_high, d_low * 1.5);
}

TEST(ServerPower, FasterThanLinearBeyondPee) {
  const auto m = ServerPowerModel::Dell2018(1000.0);
  // Paper Fig 1(a): the modern curve crosses above the proportional line
  // beyond the PEE point.
  const double at_pee = m.Power(0.7);
  const double slope_to_max = (m.Power(1.0) - at_pee) / 0.3;
  const double slope_before = (at_pee - m.Power(0.0)) / 0.7;
  EXPECT_GT(slope_to_max, slope_before);
}

TEST(ServerPower, PeakEfficiencyAtSeventyPercent) {
  const auto m = ServerPowerModel::Dell2018();
  EXPECT_NEAR(m.PeakEfficiencyUtilization(), 0.70, 0.011);
}

TEST(ServerPower, LinearModelPeaksAtFullLoad) {
  const auto m = ServerPowerModel::Linear2010();
  EXPECT_NEAR(m.PeakEfficiencyUtilization(), 1.0, 1e-9);
}

TEST(ServerPower, EfficiencyShapeAroundPee) {
  const auto m = ServerPowerModel::Dell2018();
  // Strictly increasing up to the PEE point, strictly decreasing after.
  EXPECT_LT(m.EfficiencyPerWatt(0.3), m.EfficiencyPerWatt(0.5));
  EXPECT_LT(m.EfficiencyPerWatt(0.5), m.EfficiencyPerWatt(0.7));
  EXPECT_GT(m.EfficiencyPerWatt(0.7), m.EfficiencyPerWatt(0.85));
  EXPECT_GT(m.EfficiencyPerWatt(0.85), m.EfficiencyPerWatt(1.0));
}

TEST(ServerPower, Presets) {
  EXPECT_DOUBLE_EQ(ServerPowerModel::Facebook1S().max_watts(), 96.0);
  EXPECT_DOUBLE_EQ(ServerPowerModel::MicrosoftBlade().max_watts(), 250.0);
  EXPECT_DOUBLE_EQ(ServerPowerModel::DellR940().max_watts(), 1100.0);
}

// The WithPeePoint factory must actually put the efficiency peak where it
// claims, across the whole ablation range.
class PeePointTest : public ::testing::TestWithParam<double> {};

TEST_P(PeePointTest, PeakMatchesRequestedPoint) {
  const double pee = GetParam();
  const auto m = ServerPowerModel::WithPeePoint(pee);
  EXPECT_NEAR(m.PeakEfficiencyUtilization(), pee, 0.011);
}

TEST_P(PeePointTest, CurveStaysMonotone) {
  const auto m = ServerPowerModel::WithPeePoint(GetParam());
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double p = m.Power(i / 100.0);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PeePointTest,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9, 1.0));

// --- switch power -------------------------------------------------------------------

TEST(SwitchPower, FullAndPartialPorts) {
  const SwitchPowerModel m("sw", 300.0, 0.3);
  EXPECT_DOUBLE_EQ(m.Power(1.0), 300.0);
  EXPECT_DOUBLE_EQ(m.Power(0.0), 210.0);  // chassis only
  EXPECT_DOUBLE_EQ(m.Power(0.5), 255.0);
}

TEST(SwitchPower, Presets) {
  EXPECT_DOUBLE_EQ(SwitchPowerModel::FacebookWedge().Power(1.0), 282.0);
  EXPECT_DOUBLE_EQ(SwitchPowerModel::Facebook6Pack().Power(1.0), 1400.0);
  EXPECT_DOUBLE_EQ(SwitchPowerModel::Altoline6940().Power(1.0), 315.0);
}

// --- SPEC population (Fig 1b) --------------------------------------------------------

TEST(SpecPopulation, SharesSumToOne) {
  for (const auto& d : SpecPeeDistributions()) {
    double sum = 0.0;
    for (const double s : d.share) sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "year " << d.year;
  }
}

TEST(SpecPopulation, DriftTowardLowerPee) {
  const auto y2010 = PeeSharesForYear(2010);
  const auto y2018 = PeeSharesForYear(2018);
  // Share of servers peaking at 100% collapses; 60–80% band dominates.
  EXPECT_GT(y2010[0], 0.7);
  EXPECT_LT(y2018[0], 0.1);
  EXPECT_GT(y2018[2] + y2018[3] + y2018[4], 0.8);
}

TEST(SpecPopulationDeathTest, UnknownYearFailsCheck) {
  EXPECT_DEATH(static_cast<void>(PeeSharesForYear(2009)),
               "no SPEC distribution for requested year");
}

TEST(SpecPopulation, SampleMatchesDistribution) {
  Rng rng(99);
  const auto fleet = SampleSpecPopulation(419, rng);
  EXPECT_EQ(fleet.size(), 419u);
  int low_pee = 0;
  for (const auto& s : fleet) {
    EXPECT_GE(s.pee_utilization, 0.6);
    EXPECT_LE(s.pee_utilization, 1.0);
    if (s.pee_utilization <= 0.8) ++low_pee;
  }
  // A decade-mixed fleet has a substantial sub-80% contingent.
  EXPECT_GT(low_pee, 419 / 5);
}

TEST(SpecPopulation, SampledModelsAreConsistent) {
  Rng rng(7);
  const auto fleet = SampleSpecPopulation(50, rng);
  for (const auto& s : fleet) {
    EXPECT_NEAR(s.model.PeakEfficiencyUtilization(), s.pee_utilization,
                0.011);
  }
}

}  // namespace
}  // namespace gl
