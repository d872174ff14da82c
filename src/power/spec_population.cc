#include "power/spec_population.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace gl {

const std::vector<PeeYearDistribution>& SpecPeeDistributions() {
  // Read off Fig 1(b): in 2010 nearly every submission peaked at full load;
  // by 2018 the mode sits at 70% with a substantial 60% tail.
  static const std::vector<PeeYearDistribution> kDist = {
      {2008, {0.88, 0.08, 0.04, 0.00, 0.00}},
      {2010, {0.80, 0.12, 0.06, 0.02, 0.00}},
      {2012, {0.55, 0.20, 0.15, 0.08, 0.02}},
      {2014, {0.30, 0.22, 0.25, 0.17, 0.06}},
      {2016, {0.12, 0.15, 0.30, 0.30, 0.13}},
      {2018, {0.05, 0.10, 0.28, 0.38, 0.19}},
  };
  return kDist;
}

std::array<double, 5> PeeSharesForYear(int year) {
  const auto& dists = SpecPeeDistributions();
  const auto it =
      std::find_if(dists.begin(), dists.end(), [year](const auto& d) {
        return d.year == year;
      });
  // Compared as a count, not as iterators, so the GL014 units gate over
  // src/power resolves both operands.
  GOLDILOCKS_CHECK_MSG(std::distance(it, dists.end()) > 0,
                       "no SPEC distribution for requested year");
  return it->share;
}

std::vector<SpecServer> SampleSpecPopulation(int n, Rng& rng) {
  GOLDILOCKS_CHECK_GT(n, 0);
  const auto& dists = SpecPeeDistributions();
  std::vector<SpecServer> fleet;
  fleet.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& d = dists[rng.NextBelow(dists.size())];
    double r GL_UNITS(dimensionless) = rng.NextDouble();
    std::size_t level = 0;
    for (; level + 1 < d.share.size(); ++level) {
      if (r < d.share[level]) break;
      r -= d.share[level];
    }
    const double pee GL_UNITS(dimensionless) = kPeeUtilizationLevels[level];
    fleet.push_back(
        {d.year, pee, ServerPowerModel::WithPeePoint(pee, 750.0)});
  }
  return fleet;
}

}  // namespace gl
