#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "workload/calibration.h"
#include "workload/container.h"
#include "workload/scenarios.h"
#include "workload/traces.h"

namespace gl {
namespace {

// --- Table II profiles ----------------------------------------------------------

TEST(AppProfiles, TableTwoValues) {
  const auto& mc = GetAppProfile(AppType::kMemcached);
  EXPECT_DOUBLE_EQ(mc.demand.cpu, 33.0);
  EXPECT_DOUBLE_EQ(mc.demand.mem_gb, 4.0);
  EXPECT_DOUBLE_EQ(mc.demand.net_mbps, 24.0);
  EXPECT_DOUBLE_EQ(mc.flow_count, 4944.0);

  const auto& solr = GetAppProfile(AppType::kSolr);
  EXPECT_DOUBLE_EQ(solr.demand.cpu, 32.0);
  EXPECT_DOUBLE_EQ(solr.demand.mem_gb, 12.0);
  EXPECT_DOUBLE_EQ(solr.demand.net_mbps, 1.0);
  EXPECT_DOUBLE_EQ(solr.flow_count, 50.0);

  const auto& hadoop = GetAppProfile(AppType::kHadoop);
  EXPECT_DOUBLE_EQ(hadoop.demand.cpu, 376.0);
  EXPECT_DOUBLE_EQ(hadoop.demand.mem_gb, 2.0);
  EXPECT_DOUBLE_EQ(hadoop.demand.net_mbps, 328.0);
  EXPECT_DOUBLE_EQ(hadoop.flow_count, 2.0);

  const auto& nginx = GetAppProfile(AppType::kNginx);
  EXPECT_DOUBLE_EQ(nginx.demand.cpu, 54.0);
  EXPECT_DOUBLE_EQ(nginx.demand.mem_gb, 57.0);
  EXPECT_DOUBLE_EQ(nginx.demand.net_mbps, 320.0);
  EXPECT_DOUBLE_EQ(nginx.flow_count, 25.0);
}

TEST(AppProfilesDeathTest, UnknownTypeFailsCheck) {
  EXPECT_DEATH(static_cast<void>(GetAppProfile(static_cast<AppType>(999))),
               "unknown app type");
}

TEST(AppProfiles, AllHaveNamesAndPositiveDemands) {
  for (const auto& p : AllAppProfiles()) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.demand.cpu, 0.0);
    EXPECT_GT(p.base_service_ms, 0.0);
    EXPECT_STREQ(AppTypeName(p.type), AppTypeName(p.type));
  }
}

// --- calibration (Fig 12) ---------------------------------------------------------

TEST(Calibration, SolrCpuMonotone) {
  double prev = -1.0;
  for (int rps = 0; rps <= 120; rps += 5) {
    const double cpu = SolrCpuForRps(rps);
    EXPECT_GT(cpu, prev);
    prev = cpu;
  }
}

TEST(Calibration, SolrSuperlinearTail) {
  // Fig 12a: rises faster near saturation.
  const double low = SolrCpuForRps(40) - SolrCpuForRps(20);
  const double high = SolrCpuForRps(120) - SolrCpuForRps(100);
  EXPECT_GT(high, low);
}

TEST(Calibration, HadoopTrendLinear) {
  EXPECT_NEAR(HadoopCpuTrend(100) - HadoopCpuTrend(0), 85.0, 1e-9);
}

TEST(Calibration, HadoopScatterAroundTrend) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 2000; ++i) {
    s.Add(HadoopCpuForTrafficMbps(200.0, rng));
  }
  EXPECT_NEAR(s.mean(), HadoopCpuTrend(200.0), 12.0);
  EXPECT_GT(s.stddev(), 10.0);  // it is a scatter, not a line
}

TEST(Calibration, MemcachedScalesWithRps) {
  const Resource at_ref = MemcachedDemandForRps(2000.0);
  EXPECT_DOUBLE_EQ(at_ref.cpu, 33.0);
  const Resource doubled = MemcachedDemandForRps(4000.0);
  EXPECT_DOUBLE_EQ(doubled.cpu, 66.0);
  EXPECT_DOUBLE_EQ(doubled.mem_gb, 4.0);  // cache stays resident
  EXPECT_DOUBLE_EQ(doubled.net_mbps, 48.0);
}

TEST(Calibration, MemcachedHasDemandFloor) {
  const Resource idle = MemcachedDemandForRps(0.0);
  EXPECT_GT(idle.cpu, 0.0);
}

// --- traces -----------------------------------------------------------------------

TEST(WikipediaTraceTest, StaysInRange) {
  const WikipediaTrace trace(44000, 440000);
  for (double t = 0; t <= 60.0; t += 0.5) {
    const double rps = trace.RpsAt(t);
    EXPECT_GE(rps, 44000.0 * 0.99);
    EXPECT_LE(rps, 440000.0 * 1.01);
  }
}

TEST(WikipediaTraceTest, ActuallyVaries) {
  const WikipediaTrace trace(44000, 440000);
  double lo = 1e18, hi = 0;
  for (double t = 0; t <= 60.0; t += 0.25) {
    lo = std::min(lo, trace.RpsAt(t));
    hi = std::max(hi, trace.RpsAt(t));
  }
  EXPECT_GT(hi / lo, 3.0);  // a real diurnal swing
}

TEST(WikipediaTraceTest, Deterministic) {
  const WikipediaTrace a(44000, 440000, 60.0, 1);
  const WikipediaTrace b(44000, 440000, 60.0, 1);
  EXPECT_DOUBLE_EQ(a.RpsAt(17.3), b.RpsAt(17.3));
}

TEST(AzureTraceTest, CountWithinBounds) {
  const AzureContainerTrace trace(149, 221);
  int lo = 1 << 30, hi = 0;
  for (double t = 0; t <= 60.0; t += 0.5) {
    const int c = trace.CountAt(t);
    EXPECT_GE(c, 149);
    EXPECT_LE(c, 221);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  // Touches (near) both extremes over a full period.
  EXPECT_LE(lo, 155);
  EXPECT_GE(hi, 215);
}

TEST(CorrelatedDemand, PairwisePearsonInPaperBand) {
  // Sec. II: 99.8% of pairwise correlations between 0.6 and 0.8.
  const CorrelatedDemandModel model(40, 200, 77);
  RunningStats corr;
  for (int a = 0; a < 20; ++a) {
    for (int b = a + 1; b < 20; ++b) {
      corr.Add(model.Correlation(a, b));
    }
  }
  EXPECT_GT(corr.mean(), 0.55);
  EXPECT_LT(corr.mean(), 0.85);
}

TEST(CorrelatedDemand, MultipliersBounded) {
  const CorrelatedDemandModel model(10, 100);
  for (int s = 0; s < 10; ++s) {
    for (int t = 0; t < 100; ++t) {
      const double m = model.Multiplier(s, t);
      EXPECT_GE(m, 0.3);
      EXPECT_LE(m, 2.2);
    }
  }
}

// --- scenarios ---------------------------------------------------------------------

TEST(TwitterScenario, StructureMatchesPaper) {
  const auto s = MakeTwitterCachingScenario();
  EXPECT_EQ(s->workload().size(), 176);
  EXPECT_EQ(s->num_epochs(), 60);
  // Half front-ends, half Memcached.
  int fe = 0, mc = 0;
  for (const auto& c : s->workload().containers) {
    fe += c.app == AppType::kFrontend;
    mc += c.app == AppType::kMemcached;
  }
  EXPECT_EQ(fe, 88);
  EXPECT_EQ(mc, 88);
}

TEST(TwitterScenario, QueryEdgesPresent) {
  const auto s = MakeTwitterCachingScenario();
  int query_edges = 0;
  for (const auto& e : s->workload().edges) query_edges += e.is_query;
  EXPECT_GT(query_edges, 100);
  // The heavy primary edges carry the Table II flow count.
  double max_flows = 0;
  for (const auto& e : s->workload().edges) {
    max_flows = std::max(max_flows, e.flows);
  }
  EXPECT_DOUBLE_EQ(max_flows, 4944.0);
}

TEST(TwitterScenario, DemandsTrackTrace) {
  const auto s = MakeTwitterCachingScenario();
  // Total CPU demand must co-move with total RPS across epochs.
  std::vector<double> rps, cpu;
  for (int e = 0; e < s->num_epochs(); ++e) {
    rps.push_back(s->TotalRpsAt(e));
    const auto d = s->DemandsAt(e);
    double sum = 0;
    for (const auto& r : d) sum += r.cpu;
    cpu.push_back(sum);
  }
  EXPECT_GT(PearsonCorrelation(rps, cpu), 0.9);
}

TEST(TwitterScenario, AllContainersAlwaysActive) {
  const auto s = MakeTwitterCachingScenario();
  for (const auto a : s->ActiveAt(30)) EXPECT_EQ(a, 1);
}

TEST(AzureScenario, ContainerCountVaries) {
  const auto s = MakeAzureMixScenario();
  EXPECT_EQ(s->workload().size(), 221);
  int lo = 1 << 30, hi = 0;
  for (int e = 0; e < s->num_epochs(); ++e) {
    const auto active = s->ActiveAt(e);
    int count = 0;
    for (const auto a : active) count += a;
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  EXPECT_GE(lo, 149);
  EXPECT_LE(hi, 221);
  EXPECT_GT(hi - lo, 20);  // the Azure pattern actually fluctuates
}

TEST(AzureScenario, MixesApplications) {
  const auto s = MakeAzureMixScenario();
  std::set<AppType> kinds;
  for (const auto& c : s->workload().containers) kinds.insert(c.app);
  EXPECT_GE(kinds.size(), 7u);
}

TEST(AzureScenario, InactiveContainersHaveZeroDemand) {
  const auto s = MakeAzureMixScenario();
  for (int e = 0; e < s->num_epochs(); e += 7) {
    const auto demands = s->DemandsAt(e);
    const auto active = s->ActiveAt(e);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (!active[i]) {
        EXPECT_TRUE(demands[i].IsZero());
      }
    }
  }
}

TEST(AppendServiceTest, WiresStarTopology) {
  Workload w;
  const auto ids = AppendService(w, AppType::kHadoop, 5, 0);
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_EQ(w.size(), 5);
  // Star: 4 hub edges; chain: 3 more.
  EXPECT_EQ(w.edges.size(), 7u);
  EXPECT_DOUBLE_EQ(w.TotalDemand().cpu, 5 * 376.0);
}

}  // namespace
}  // namespace gl
