#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/goldilocks.h"
#include "schedulers/e_pvm.h"
#include "sim/latency.h"
#include "sim/migration.h"
#include "sim/simulator.h"
#include "netsim/traffic.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

const Resource kCap{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};

// --- traffic estimation --------------------------------------------------------------

TEST(Traffic, IntraServerTrafficStaysLocal) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 10, .mem_gb = 1, .net_mbps = 100};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 100});
  std::vector<std::uint8_t> active(2, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{0}};
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  EXPECT_GT(t.edge_mbps[0], 0.0);
  for (const double load : t.node_uplink_mbps) EXPECT_DOUBLE_EQ(load, 0.0);
}

TEST(Traffic, CrossServerTrafficLoadsPath) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 10, .mem_gb = 1, .net_mbps = 100};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 100});
  std::vector<std::uint8_t> active(2, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{2}};  // different leaves
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  // The single edge carries the full 100 Mbps of each endpoint.
  EXPECT_NEAR(t.edge_mbps[0], 100.0, 1e-9);
  // Leaf uplinks of both racks are loaded.
  const NodeId leaf0 = topo.AncestorAt(topo.server_node(ServerId{0}), 1);
  const NodeId leaf1 = topo.AncestorAt(topo.server_node(ServerId{2}), 1);
  EXPECT_NEAR(t.node_uplink_mbps[static_cast<std::size_t>(leaf0.value())],
              100.0, 1e-9);
  EXPECT_NEAR(t.node_uplink_mbps[static_cast<std::size_t>(leaf1.value())],
              100.0, 1e-9);
}

TEST(Traffic, SplitsDemandByFlowWeights) {
  Topology topo = Topology::LeafSpine(4, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 3; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.demand = {.cpu = 10, .mem_gb = 1, .net_mbps = 90};
    w.containers.push_back(c);
  }
  // Container 0 talks to 1 (weight 2) and 2 (weight 1): 60/30 split.
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 2.0});
  w.edges.push_back({ContainerId{0}, ContainerId{2}, 1.0});
  std::vector<Resource> demands(3, {.cpu = 10, .mem_gb = 1, .net_mbps = 90});
  std::vector<std::uint8_t> active(3, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{2}, ServerId{4}};
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  EXPECT_GT(t.edge_mbps[0], t.edge_mbps[1]);
}

TEST(Traffic, InactiveEdgesCarryNothing) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 100});
  std::vector<std::uint8_t> active{1, 0};
  Placement p;
  p.server_of = {ServerId{0}, ServerId{2}};
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  EXPECT_DOUBLE_EQ(t.edge_mbps[0], 0.0);
}

// --- latency model --------------------------------------------------------------------

TEST(Latency, QueueFactorShape) {
  Topology topo = Topology::Testbed16();
  LatencyModel m(topo);
  EXPECT_NEAR(m.QueueFactor(0.0), 1.0, 1e-9);
  EXPECT_LT(m.QueueFactor(0.3), m.QueueFactor(0.7));
  EXPECT_LT(m.QueueFactor(0.7), m.QueueFactor(0.95));
  // Cap holds even at overload.
  LatencyOptions opts;
  EXPECT_LE(m.QueueFactor(1.5), opts.max_queue_factor);
}

// ComputeTct prices a query by the larger of its two endpoints' queueing
// factors instead of the factor of the larger utilization. The two agree
// bit for bit only if QueueFactor never decreases; check that on a dense
// grid through u <= 0, the 0.999 clamp, the max_queue_factor cap and
// random utilizations, with and without the cap.
TEST(Latency, QueueFactorIsMonotoneBitForBit) {
  const Topology topo = Topology::Testbed16();
  LatencyOptions uncapped;
  uncapped.max_queue_factor = 1e300;
  for (const LatencyOptions& opts : {LatencyOptions{}, uncapped}) {
    const LatencyModel m(topo, opts);
    std::vector<double> us = {-0.0, 0.0, 5e-324, -5e-324, 1e-300};
    for (int i = -200; i <= 1500; ++i) us.push_back(i * 1e-3);
    // Every double within 256 ulps of a point, and a 1e-9 grid around it.
    const auto dense_around = [&us](double x) {
      double up = x, down = x;
      for (int k = 0; k < 256; ++k) {
        us.push_back(up = std::nextafter(up, 2.0));
        us.push_back(down = std::nextafter(down, -2.0));
      }
      for (int i = -1000; i <= 1000; ++i) us.push_back(x + i * 1e-9);
    };
    dense_around(0.999 / (1.0 + opts.burst_amplification));  // the clamp
    // Where the factor first reaches its cap (bisection on the model).
    double lo = 0.0, hi = 1.5;
    for (int k = 0; k < 200; ++k) {
      const double mid = 0.5 * (lo + hi);
      (m.QueueFactor(mid) < opts.max_queue_factor ? lo : hi) = mid;
    }
    dense_around(hi);
    Rng rng(0x9f1e);
    for (int i = 0; i < 20000; ++i) us.push_back(rng.Uniform(0.0, 1.5));
    std::sort(us.begin(), us.end());
    for (std::size_t i = 0; i + 1 < us.size(); ++i) {
      ASSERT_LE(m.QueueFactor(us[i]), m.QueueFactor(us[i + 1]))
          << "u=" << us[i] << " next=" << us[i + 1];
    }
    for (int i = 0; i < 20000; ++i) {
      const double a = us[rng.NextBelow(us.size())];
      const double b = us[rng.NextBelow(us.size())];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.QueueFactor(std::max(a, b))),
                std::bit_cast<std::uint64_t>(
                    std::max(m.QueueFactor(a), m.QueueFactor(b))))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Latency, CongestionFactorShape) {
  Topology topo = Topology::Testbed16();
  LatencyModel m(topo);
  EXPECT_NEAR(m.CongestionFactor(0.0), 1.0, 1e-9);
  EXPECT_GT(m.CongestionFactor(0.8), 2.0);
  LatencyOptions opts;
  EXPECT_LE(m.CongestionFactor(2.0), opts.max_congestion_factor);
}

TEST(Latency, ColocationBeatsCrossFabric) {
  Topology topo = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.app = i == 0 ? AppType::kFrontend : AppType::kMemcached;
    c.demand = {.cpu = 30, .mem_gb = 4, .net_mbps = 20};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 100.0, true});
  std::vector<Resource> demands(2, {.cpu = 30, .mem_gb = 4, .net_mbps = 20});
  std::vector<std::uint8_t> active(2, 1);

  LatencyModel m(topo);
  Placement together, apart;
  together.server_of = {ServerId{0}, ServerId{0}};
  apart.server_of = {ServerId{0}, ServerId{14}};
  const auto t1 = EstimateTraffic(w, together, demands, active, topo);
  const auto t2 = EstimateTraffic(w, apart, demands, active, topo);
  const auto r1 = m.ComputeTct(w, together, demands, active, t1);
  const auto r2 = m.ComputeTct(w, apart, demands, active, t2);
  EXPECT_LT(r1.mean_ms, r2.mean_ms);
  EXPECT_EQ(r1.query_edges, 1);
}

TEST(Latency, OverloadedServerHurts) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    c.app = i == 0 ? AppType::kFrontend : AppType::kMemcached;
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0, true});
  std::vector<std::uint8_t> active(2, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{0}};
  LatencyModel m(topo);

  std::vector<Resource> light(2, {.cpu = 160, .mem_gb = 1, .net_mbps = 5});
  std::vector<Resource> heavy(2, {.cpu = 1550, .mem_gb = 1, .net_mbps = 5});
  const auto tl = EstimateTraffic(w, p, light, active, topo);
  const auto th = EstimateTraffic(w, p, heavy, active, topo);
  EXPECT_LT(m.ComputeTct(w, p, light, active, tl).mean_ms,
            m.ComputeTct(w, p, heavy, active, th).mean_ms);
}

TEST(Latency, NonQueryEdgesIgnored) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0, false});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 5});
  std::vector<std::uint8_t> active(2, 1);
  Placement p;
  p.server_of = {ServerId{0}, ServerId{1}};
  LatencyModel m(topo);
  const auto t = EstimateTraffic(w, p, demands, active, topo);
  const auto r = m.ComputeTct(w, p, demands, active, t);
  EXPECT_EQ(r.query_edges, 0);
  EXPECT_DOUBLE_EQ(r.mean_ms, 0.0);
}

// Both accounting kernels index placement.server_of by container id, so a
// placement shorter than the workload is a caller bug they refuse.
TEST(AccountingDeathTest, ShortPlacementIsRejected) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  w.edges.push_back({ContainerId{0}, ContainerId{1}, 10.0, true});
  std::vector<Resource> demands(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 5});
  std::vector<std::uint8_t> active(2, 1);
  Placement full;
  full.server_of = {ServerId{0}, ServerId{1}};
  Placement short_placement;
  short_placement.server_of = {ServerId{0}};
  const LatencyModel m(topo);
  const auto t = EstimateTraffic(w, full, demands, active, topo);
  EXPECT_DEATH(
      static_cast<void>(EstimateTraffic(w, short_placement, demands, active,
                                        topo)),
      "CHECK failed");
  EXPECT_DEATH(static_cast<void>(m.ComputeTct(w, short_placement, demands,
                                              active, t)),
               "CHECK failed");
}

// --- migration cost --------------------------------------------------------------------

TEST(Migration, CountsOnlyMoves) {
  Workload w;
  for (int i = 0; i < 3; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  std::vector<Resource> demands(3, {.cpu = 10, .mem_gb = 4, .net_mbps = 5});
  Placement before, after;
  before.server_of = {ServerId{0}, ServerId{1}, ServerId{2}};
  after.server_of = {ServerId{0}, ServerId{5}, ServerId{2}};
  const auto cost = ComputeMigrationCost(before, after, w, demands);
  EXPECT_EQ(cost.migrations, 1);
  EXPECT_GT(cost.total_downtime_ms, 0.0);
  EXPECT_GT(cost.traffic_gb, 4.0);  // ≥ the 4 GB image
}

TEST(Migration, DowntimeScalesWithMemory) {
  Workload w;
  for (int i = 0; i < 2; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  Placement before, after;
  before.server_of = {ServerId{0}, ServerId{0}};
  after.server_of = {ServerId{1}, ServerId{1}};
  std::vector<Resource> small(2, {.cpu = 10, .mem_gb = 1, .net_mbps = 5});
  std::vector<Resource> big(2, {.cpu = 10, .mem_gb = 32, .net_mbps = 5});
  const auto c_small = ComputeMigrationCost(before, after, w, small);
  const auto c_big = ComputeMigrationCost(before, after, w, big);
  EXPECT_GT(c_big.total_downtime_ms, c_small.total_downtime_ms * 5.0);
}

TEST(Migration, NoMovesNoCost) {
  Workload w;
  Container c;
  c.id = ContainerId{0};
  w.containers.push_back(c);
  Placement p;
  p.server_of = {ServerId{3}};
  std::vector<Resource> demands(1, {.cpu = 1, .mem_gb = 1, .net_mbps = 1});
  const auto cost = ComputeMigrationCost(p, p, w, demands);
  EXPECT_EQ(cost.migrations, 0);
  EXPECT_DOUBLE_EQ(cost.total_downtime_ms, 0.0);
}

// --- experiment runner -------------------------------------------------------------------

TEST(Runner, ProducesPerEpochMetrics) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 5;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  ExperimentRunner runner(*scenario, topo);
  EPvmScheduler sched;
  const auto result = runner.Run(sched);
  ASSERT_EQ(result.epochs.size(), 5u);
  for (const auto& m : result.epochs) {
    EXPECT_EQ(m.unplaced_containers, 0);
    EXPECT_GT(m.total_watts, 0.0);
    EXPECT_GT(m.mean_tct_ms, 0.0);
    EXPECT_GT(m.rps, 0.0);
    EXPECT_GT(m.energy_per_request_j, 0.0);
  }
  EXPECT_EQ(result.scheduler, "E-PVM");
}

TEST(Runner, EPvmKeepsAllServersActive) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 3;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  ExperimentRunner runner(*scenario, topo);
  EPvmScheduler sched;
  const auto result = runner.Run(sched);
  for (const auto& m : result.epochs) EXPECT_EQ(m.active_servers, 16);
}

TEST(Runner, AverageAggregates) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 4;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  ExperimentRunner runner(*scenario, topo);
  GoldilocksScheduler sched;
  const auto result = runner.Run(sched);
  const auto avg = result.Average();
  double watts = 0;
  for (const auto& m : result.epochs) watts += m.total_watts;
  EXPECT_NEAR(avg.total_watts, watts / 4.0, 1e-6);
  EXPECT_GT(avg.active_servers, 0);
}

TEST(Runner, MigrationsTrackedAcrossEpochs) {
  // A long repartition interval reuses groupings (and their servers) while
  // demands still fit, so it migrates far less than per-epoch re-planning.
  // It cannot be zero: a group that outgrows its server forces a refresh.
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 8;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();
  ExperimentRunner runner(*scenario, topo);

  auto total_migrations = [&](int interval) {
    GoldilocksOptions gopts;
    gopts.repartition_interval = interval;
    GoldilocksScheduler sched(gopts);
    const auto result = runner.Run(sched);
    EXPECT_EQ(result.epochs[0].migrations, 0);  // nothing before epoch 0
    int total = 0;
    for (const auto& m : result.epochs) total += m.migrations;
    return total;
  };
  const int stable = total_migrations(100);
  const int churny = total_migrations(1);
  EXPECT_LT(stable, churny / 2 + 1);
}

TEST(Runner, IdleServersDrawNothingWhenGated) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 2;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const Topology topo = Topology::Testbed16();

  RunnerOptions on;
  RunnerOptions off;
  off.power_off_idle_servers = false;
  ExperimentRunner gated(*scenario, topo, on);
  ExperimentRunner ungated(*scenario, topo, off);
  GoldilocksScheduler s1, s2;
  const double gated_watts = gated.Run(s1).Average().server_watts;
  const double ungated_watts = ungated.Run(s2).Average().server_watts;
  EXPECT_LT(gated_watts, ungated_watts);
}

}  // namespace
}  // namespace gl
