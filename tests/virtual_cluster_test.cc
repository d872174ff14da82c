#include <gtest/gtest.h>

#include <set>

#include "core/goldilocks.h"
#include "core/virtual_cluster.h"
#include "common/rng.h"
#include "common/state_hash.h"
#include "obs/metrics.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

const Resource kCap{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};

std::vector<Resource> UniformDemands(int n, const Resource& d) {
  return std::vector<Resource>(static_cast<std::size_t>(n), d);
}

std::vector<std::vector<ContainerId>> MakeGroups(
    const std::vector<int>& sizes) {
  std::vector<std::vector<ContainerId>> groups;
  int next = 0;
  for (const int s : sizes) {
    std::vector<ContainerId> g;
    for (int i = 0; i < s; ++i) g.push_back(ContainerId{next++});
    groups.push_back(std::move(g));
  }
  return groups;
}

TEST(VirtualCluster, PlacesSmallGroupOnOneRack) {
  Topology topo = Topology::FatTree(4, kCap, 1000.0);
  VirtualClusterPlacer placer(topo, {});
  const auto groups = MakeGroups({2});
  const Resource d{.cpu = 500, .mem_gb = 8, .net_mbps = 100};
  const auto p = placer.PlaceGroups(groups, UniformDemands(2, d), 2);
  ASSERT_TRUE(p.server_of[0].valid());
  ASSERT_TRUE(p.server_of[1].valid());
  EXPECT_LE(topo.HopDistance(p.server_of[0], p.server_of[1]), 2);
  EXPECT_EQ(placer.stats().groups_placed_whole, 1);
  EXPECT_EQ(placer.stats().bandwidth_violations, 0);
}

TEST(VirtualCluster, RespectsServerCeilings) {
  Topology topo = Topology::LeafSpine(4, 2, 2, kCap, 1000.0);
  VirtualClusterOptions opts;
  VirtualClusterPlacer placer(topo, opts);
  const Resource d{.cpu = 1000, .mem_gb = 10, .net_mbps = 100};
  const auto groups = MakeGroups({8});
  const auto p = placer.PlaceGroups(groups, UniformDemands(8, d), 8);
  std::vector<Resource> loads(static_cast<std::size_t>(topo.num_servers()));
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(p.server_of[i].valid());
    loads[static_cast<std::size_t>(p.server_of[i].value())] +=
        d;
  }
  for (int s = 0; s < topo.num_servers(); ++s) {
    EXPECT_LE(loads[static_cast<std::size_t>(s)].cpu,
              kCap.cpu * opts.pee_utilization + 1e-6);
  }
}

TEST(VirtualCluster, GroupTooBigForRackIsSplit) {
  // Each rack holds 2 servers; with cpu 2240 ceiling (70% of 3200) a server
  // fits 2 containers of cpu 1000 → a rack fits 4. A 10-container group
  // must span racks.
  Topology topo = Topology::LeafSpine(4, 2, 2, kCap, 10000.0);
  VirtualClusterPlacer placer(topo, {});
  const Resource d{.cpu = 1000, .mem_gb = 4, .net_mbps = 100};
  const auto groups = MakeGroups({10});
  const auto p = placer.PlaceGroups(groups, UniformDemands(10, d), 10);
  std::set<int> racks;
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(p.server_of[i].valid());
    racks.insert(
        topo.AncestorAt(topo.server_node(p.server_of[i]), 1).value());
  }
  EXPECT_GE(racks.size(), 2u);
}

TEST(VirtualCluster, BandwidthConstraintForcesSpread) {
  // Tiny rack uplinks: 100 Mbps. A group pushing 80 Mbps per container
  // cannot put many containers behind one rack once inter-group traffic is
  // accounted; the placer must spread or record violations.
  Topology topo = Topology::LeafSpine(8, 2, 1, kCap, 100.0);
  VirtualClusterPlacer placer(topo, {});
  const Resource d{.cpu = 100, .mem_gb = 2, .net_mbps = 40};
  const auto groups = MakeGroups({4, 4});
  const auto p = placer.PlaceGroups(groups, UniformDemands(8, d), 8);
  int placed = 0;
  for (const auto s : p.server_of) placed += s.valid();
  EXPECT_EQ(placed, 8);
  // Reservations on every leaf uplink must respect Eq. 4/5 bookkeeping
  // within capacity unless explicitly counted as violations.
  int over = 0;
  for (const auto leaf : topo.NodesAtLevel(1)) {
    if (placer.ReservationOn(leaf) > topo.uplink_capacity(leaf) + 1e-6) {
      ++over;
    }
  }
  EXPECT_LE(over, placer.stats().bandwidth_violations);
}

TEST(VirtualCluster, HeterogeneousServersUsed) {
  Topology topo = Topology::LeafSpine(4, 2, 2, kCap, 1000.0);
  // Shrink half of the servers.
  for (int s = 0; s < topo.num_servers(); s += 2) {
    topo.set_server_capacity(ServerId{s}, kCap * 0.25);
  }
  VirtualClusterPlacer placer(topo, {});
  const Resource d{.cpu = 1500, .mem_gb = 8, .net_mbps = 50};
  const auto groups = MakeGroups({4});
  const auto p = placer.PlaceGroups(groups, UniformDemands(4, d), 4);
  // cpu 1500 fits only the big servers (small ceiling = 0.25·3200·0.7=560).
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(p.server_of[i].valid());
    EXPECT_EQ(p.server_of[i].value() % 2, 1) << "landed on a small server";
  }
}

TEST(VirtualCluster, DegradedUplinkAvoided) {
  Topology topo = Topology::FatTree(4, kCap, 1000.0);
  // Cripple the first pod's uplink so cross-pod groups avoid it.
  const NodeId pod0 = topo.NodesAtLevel(2).front();
  topo.DegradeUplink(pod0, 0.01);
  VirtualClusterPlacer placer(topo, {});
  // Two groups that talk across: every container sends 300 Mbps.
  const Resource d{.cpu = 200, .mem_gb = 2, .net_mbps = 300};
  const auto groups = MakeGroups({4, 4});
  const auto p = placer.PlaceGroups(groups, UniformDemands(8, d), 8);
  // Placement succeeds; the heavily-communicating groups should not be
  // split across the degraded pod boundary without a violation record.
  int placed = 0;
  for (const auto s : p.server_of) placed += s.valid();
  EXPECT_EQ(placed, 8);
}

TEST(VirtualCluster, LocalitySiblingsShareSubtree) {
  Topology topo = Topology::FatTree(4, kCap, 10000.0);
  VirtualClusterPlacer placer(topo, {});
  const Resource d{.cpu = 1000, .mem_gb = 4, .net_mbps = 10};
  // Groups sized one-per-server; consecutive groups should fill nearby
  // servers (left-most subtree first).
  const auto groups = MakeGroups({2, 2, 2, 2});
  const auto p = placer.PlaceGroups(groups, UniformDemands(8, d), 8);
  // First two groups land in the first rack(s) of the first pod.
  const NodeId pod_of_0 =
      topo.AncestorAt(topo.server_node(p.server_of[0]), 2);
  const NodeId pod_of_2 =
      topo.AncestorAt(topo.server_node(p.server_of[2]), 2);
  EXPECT_EQ(pod_of_0, pod_of_2);
}

TEST(VirtualCluster, EmptyGroupsAreSkipped) {
  Topology topo = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  VirtualClusterPlacer placer(topo, {});
  std::vector<std::vector<ContainerId>> groups{{}, {ContainerId{0}}};
  const Resource d{.cpu = 100, .mem_gb = 1, .net_mbps = 10};
  const auto p = placer.PlaceGroups(groups, UniformDemands(1, d), 1);
  EXPECT_TRUE(p.server_of[0].valid());
}

TEST(VirtualCluster, GoldilocksEndToEndOnAsymmetricTopology) {
  // Full pipeline: heterogeneous servers + degraded link via the scheduler.
  Topology topo = Topology::FatTree(4, kCap, 1000.0);
  for (int s = 0; s < topo.num_servers(); s += 3) {
    topo.set_server_capacity(ServerId{s}, kCap * 0.5);
  }
  topo.DegradeUplink(topo.NodesAtLevel(2)[1], 0.5);

  const auto scenario = MakeTwitterCachingScenario();
  const auto demands = scenario->DemandsAt(10);
  const auto active = scenario->ActiveAt(10);
  SchedulerInput input;
  input.workload = &scenario->workload();
  input.demands = demands;
  input.active = active;
  input.topology = &topo;

  GoldilocksOptions opts;
  opts.use_virtual_clusters = true;
  GoldilocksScheduler sched(opts);
  const auto p = sched.Place(input);
  int placed = 0;
  for (const auto s : p.server_of) placed += s.valid();
  EXPECT_EQ(placed, 176);
  // Ceilings hold per heterogeneous capacity.
  const auto loads = ServerLoads(p, demands, topo.num_servers());
  for (int s = 0; s < topo.num_servers(); ++s) {
    const auto& cap = topo.server_capacity(ServerId{s});
    EXPECT_LE(loads[static_cast<std::size_t>(s)].cpu,
              cap.cpu * opts.pee_utilization * 1.02);
  }
}

// --- subtree bound ------------------------------------------------------------
//
// Near-full heterogeneous fat trees: groups keep arriving after most
// servers are at their ceilings, so most subtree probes fail and the O(1)
// room bound in TryFill rejects many of them without a scan. The
// placement, the stats and every reservation must equal what the scan
// alone produced (digests pinned before the bound).

struct NearFullRun {
  std::uint64_t digest = 0;
  int bound_rejections = 0;
  std::uint64_t counter_delta = 0;
};

NearFullRun PlaceNearFull(int k, std::uint64_t seed) {
  Rng rng(seed);
  Topology topo = Topology::FatTree(k, kCap, 1000.0);
  const double scales[] = {0.25, 0.5, 1.0, 1.5};
  std::vector<double> ceiling_cpu;
  for (int s = 0; s < topo.num_servers(); ++s) {
    const Resource cap = kCap * scales[rng.NextBelow(4)];
    topo.set_server_capacity(ServerId{s}, cap);
    ceiling_cpu.push_back(cap.cpu * 0.70);
  }
  topo.DegradeUplink(topo.NodesAtLevel(2)[1], 0.5);

  std::vector<Resource> demands;
  std::vector<std::vector<ContainerId>> groups;
  const auto add = [&](std::vector<ContainerId>& group, const Resource& d) {
    group.push_back(ContainerId{static_cast<int>(demands.size())});
    demands.push_back(d);
  };
  const auto random_demand = [&rng] {
    return Resource{.cpu = rng.Uniform(50.0, 900.0),
                    .mem_gb = rng.Uniform(0.5, 12.0),
                    .net_mbps = rng.Uniform(5.0, 150.0)};
  };
  // First, one container per server of the first quarter at exactly the
  // server's CPU ceiling or a hair over it (within WithinCap's ε): each
  // fills its rack to the bound's edge, where the bound must still admit
  // it (room + slack), or it lands a rack further right.
  for (std::size_t s = 0; s < ceiling_cpu.size() / 4; ++s) {
    Resource d = random_demand();
    d.cpu = ceiling_cpu[s] * (rng.NextBelow(2) == 0 ? 1.0 : 1.0 + 5e-7);
    add(groups.emplace_back(), d);
  }
  // Then random groups until demand passes the total CPU ceiling.
  double cpu = 0.0;
  double total_ceiling = 0.0;
  for (const double c : ceiling_cpu) total_ceiling += c;
  while (cpu < 1.05 * total_ceiling) {
    auto& group = groups.emplace_back();
    const auto size = 1 + rng.NextBelow(8);
    for (std::uint64_t i = 0; i < size; ++i) {
      const Resource d = random_demand();
      cpu += d.cpu;
      add(group, d);
    }
  }

  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "vc.subtree_bound_rejections", obs::MetricKind::kDeterministic);
  const std::uint64_t before = counter.value();
  VirtualClusterPlacer placer(topo, {});
  const Placement p = placer.PlaceGroups(groups, demands, demands.size());

  StateHasher h;
  for (const auto s : p.server_of) h.MixId(s);
  h.MixI32(placer.stats().groups_placed_whole);
  h.MixI32(placer.stats().groups_split);
  h.MixI32(placer.stats().bandwidth_violations);
  for (int n = 0; n < topo.num_nodes(); ++n) {
    h.MixDouble(placer.ReservationOn(NodeId{n}));
  }
  return {.digest = h.digest(),
          .bound_rejections = placer.stats().subtree_bound_rejections,
          .counter_delta = counter.value() - before};
}

TEST(VirtualCluster, SubtreeBoundRejectsProbesWithoutChangingPlacements) {
  struct Case {
    int k;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {4, 1, 0x6560f0ecd6455bd4ULL},
      {4, 2, 0xbda0cf8dc5a03ee4ULL},
      {8, 1, 0xc2458c7e011e7388ULL},
      {8, 2, 0xbfb9cff269d1c796ULL},
  };
  for (const auto& c : cases) {
    const NearFullRun run = PlaceNearFull(c.k, c.seed);
    EXPECT_EQ(run.digest, c.digest)
        << "k=" << c.k << " seed=" << c.seed << std::hex << " digest=0x"
        << run.digest;
    EXPECT_GT(run.bound_rejections, 0) << "k=" << c.k << " seed=" << c.seed;
    EXPECT_EQ(run.counter_delta,
              static_cast<std::uint64_t>(run.bound_rejections));
  }
}

}  // namespace
}  // namespace gl
