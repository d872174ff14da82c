#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "netsim/flowsim.h"
#include "netsim/traffic.h"
#include "topology/datacenters.h"
#include "topology/topology.h"

namespace gl {
namespace {

const Resource kCap{.cpu = 1600, .mem_gb = 64, .net_mbps = 1000};

// --- fat-tree ------------------------------------------------------------------

TEST(FatTree, PaperScaleCounts) {
  // The Fig. 13 topology: 28-ary fat tree → 5488 servers, 980 switches.
  const Topology t = Topology::FatTree(28, kCap, 10000.0);
  EXPECT_EQ(t.num_servers(), 5488);
  EXPECT_EQ(t.num_switches(), 980);
}

TEST(FatTree, SmallCounts) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  EXPECT_EQ(t.num_servers(), 16);     // k^3/4
  EXPECT_EQ(t.num_switches(), 20);    // 5k^2/4
  EXPECT_EQ(t.num_levels(), 4);
}

TEST(FatTree, HopDistances) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  // Servers 0,1 share a rack; 0,2 share a pod; 0,8 are cross-pod.
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{0}), 0);
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{1}), 2);
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{2}), 4);
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{8}), 6);
  // Symmetry.
  EXPECT_EQ(t.HopDistance(ServerId{8}, ServerId{0}), 6);
}

TEST(FatTree, UplinkCapacities) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  // Rack uplink: k/2 × link = 2000; pod uplink: (k/2)^2 × link = 4000.
  const NodeId rack = t.AncestorAt(t.server_node(ServerId{0}), 1);
  const NodeId pod = t.AncestorAt(t.server_node(ServerId{0}), 2);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(rack), 2000.0);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(pod), 4000.0);
  // Server NIC equals the link rate.
  EXPECT_DOUBLE_EQ(t.server_capacity(ServerId{0}).net_mbps, 1000.0);
}

TEST(FatTree, ServersUnderSubtrees) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  EXPECT_EQ(t.ServersUnder(t.root()).size(), 16u);
  const NodeId rack = t.AncestorAt(t.server_node(ServerId{0}), 1);
  const auto rack_servers = t.ServersUnder(rack);
  EXPECT_EQ(rack_servers.size(), 2u);
  const NodeId pod = t.AncestorAt(t.server_node(ServerId{0}), 2);
  EXPECT_EQ(t.ServersUnder(pod).size(), 4u);
}

TEST(FatTree, ServersInOrderAreContiguous) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  const auto servers = t.ServersUnder(t.root());
  std::set<int> seen;
  for (const auto s : servers) seen.insert(s.value());
  EXPECT_EQ(seen.size(), 16u);
  // Left-most ordering: adjacent entries share racks pairwise.
  EXPECT_EQ(t.HopDistance(servers[0], servers[1]), 2);
}

TEST(FatTree, NodesAtLevel) {
  const Topology t = Topology::FatTree(4, kCap, 1000.0);
  EXPECT_EQ(t.NodesAtLevel(1).size(), 8u);  // k^2/2 racks
  EXPECT_EQ(t.NodesAtLevel(2).size(), 4u);  // pods
  EXPECT_EQ(t.NodesAtLevel(3).size(), 1u);  // core root
  EXPECT_EQ(t.NodesAtLevel(0).size(), 16u);
}

// --- leaf-spine -----------------------------------------------------------------

TEST(LeafSpine, Counts) {
  const Topology t = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  EXPECT_EQ(t.num_servers(), 16);
  EXPECT_EQ(t.num_switches(), 10);  // 8 leaves + 2 spines
  EXPECT_EQ(t.num_levels(), 3);
}

TEST(LeafSpine, HopDistances) {
  const Topology t = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{1}), 2);  // same leaf
  EXPECT_EQ(t.HopDistance(ServerId{0}, ServerId{2}), 4);  // cross leaf
}

TEST(LeafSpine, UplinkIsSpineMesh) {
  const Topology t = Topology::LeafSpine(8, 2, 2, kCap, 1000.0);
  const NodeId leaf = t.AncestorAt(t.server_node(ServerId{0}), 1);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(leaf), 2000.0);  // 2 spines × 1G
}

TEST(Testbed16, MatchesPaperSpec) {
  const Topology t = Topology::Testbed16();
  EXPECT_EQ(t.num_servers(), 16);
  const auto& cap = t.server_capacity(ServerId{0});
  EXPECT_DOUBLE_EQ(cap.cpu, 3200.0);   // 32 cores
  EXPECT_DOUBLE_EQ(cap.mem_gb, 64.0);
  EXPECT_DOUBLE_EQ(cap.net_mbps, 1000.0);
}

// --- capacity bookkeeping ---------------------------------------------------------

TEST(TopologyCapacity, TotalsAndAverages) {
  const Topology t = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Resource expect_cap = kCap;
  expect_cap.net_mbps = 1000.0;
  EXPECT_DOUBLE_EQ(t.total_server_capacity().cpu, 4 * expect_cap.cpu);
  EXPECT_DOUBLE_EQ(t.average_server_capacity().cpu, expect_cap.cpu);
}

TEST(TopologyCapacity, Heterogeneity) {
  Topology t = Topology::LeafSpine(2, 2, 1, kCap, 1000.0);
  Resource small = kCap * 0.5;
  t.set_server_capacity(ServerId{0}, small);
  EXPECT_DOUBLE_EQ(t.server_capacity(ServerId{0}).cpu, kCap.cpu * 0.5);
  EXPECT_DOUBLE_EQ(t.average_server_capacity().cpu, kCap.cpu * 0.875);
}

// --- reservations & failures -------------------------------------------------------

TEST(TopologyBandwidth, ReserveRelease) {
  Topology t = Topology::LeafSpine(2, 2, 2, kCap, 1000.0);
  const NodeId leaf = t.AncestorAt(t.server_node(ServerId{0}), 1);
  EXPECT_DOUBLE_EQ(t.uplink_residual(leaf), 2000.0);
  t.Reserve(leaf, 500.0);
  EXPECT_DOUBLE_EQ(t.uplink_residual(leaf), 1500.0);
  t.Release(leaf, 200.0);
  EXPECT_DOUBLE_EQ(t.uplink_residual(leaf), 1700.0);
  t.ClearReservations();
  EXPECT_DOUBLE_EQ(t.uplink_residual(leaf), 2000.0);
}

TEST(TopologyBandwidth, ReleaseClampsAtZero) {
  Topology t = Topology::LeafSpine(2, 2, 2, kCap, 1000.0);
  const NodeId leaf = t.AncestorAt(t.server_node(ServerId{0}), 1);
  t.Reserve(leaf, 100.0);
  t.Release(leaf, 500.0);
  EXPECT_DOUBLE_EQ(t.uplink_reserved(leaf), 0.0);
}

TEST(TopologyFailure, DegradeUplink) {
  Topology t = Topology::FatTree(4, kCap, 1000.0);
  const NodeId pod = t.AncestorAt(t.server_node(ServerId{0}), 2);
  const double before = t.uplink_capacity(pod);
  t.DegradeUplink(pod, 0.5);
  EXPECT_DOUBLE_EQ(t.uplink_capacity(pod), before * 0.5);
}

// --- tree-path walker -----------------------------------------------------------

int ParentChainDepth(const Topology& t, NodeId id) {
  int d = 0;
  for (NodeId cur = id; t.node(cur).parent.valid(); cur = t.node(cur).parent) {
    ++d;
  }
  return d;
}

TEST(TopologyDepth, MatchesParentChainForEveryFactory) {
  Topology::ThreeTierSpec spec;
  spec.pods = 2;
  spec.racks_per_pod = 3;
  spec.servers_per_rack = 4;
  const Topology topologies[] = {
      Topology::FatTree(4, kCap, 1000.0),
      Topology::LeafSpine(3, 2, 2, kCap, 1000.0),
      Topology::Testbed16(),
      Topology::ThreeTier(spec),
      Topology::Vl2(8, kCap),
  };
  for (const auto& t : topologies) {
    EXPECT_EQ(t.path_hop(t.root()).depth, 0);
    for (int i = 0; i < t.num_nodes(); ++i) {
      EXPECT_EQ(t.path_hop(NodeId{i}).depth, ParentChainDepth(t, NodeId{i}))
          << "node " << i;
      EXPECT_EQ(t.path_hop(NodeId{i}).parent, t.node(NodeId{i}).parent)
          << "node " << i;
    }
  }
}

// Servers at depths 1 to 4, so paths climb a deeper a-side alone, a deeper
// b-side alone, and both sides in step:
//
//   root(4) ─┬─ p0(3) ─┬─ a0(2) ── r0(1) ── s0 s1        depth 4
//            │         └─ r1(1) ── s2                     depth 3
//            ├─ r2(1) ── s3 s4                            depth 2
//            ├─ s5                                        depth 1
//            └─ p1(2) ─┬─ r3(1) ── s6                     depth 3
//                      └─ s7                              depth 2
Topology UnevenTree() {
  Topology t;
  const NodeId root = t.AddSwitchNode(NodeId::invalid(), 4, 0.0, 2, 0);
  const NodeId p0 = t.AddSwitchNode(root, 3, 4000.0, 2, 4);
  const NodeId a0 = t.AddSwitchNode(p0, 2, 3000.0, 1, 3);
  const NodeId r0 = t.AddSwitchNode(a0, 1, 2000.0, 1, 2);
  t.AddServer(r0, Resource{.cpu = 800, .mem_gb = 32, .net_mbps = 1000});
  t.AddServer(r0, Resource{.cpu = 800, .mem_gb = 32, .net_mbps = 700});
  const NodeId r1 = t.AddSwitchNode(p0, 1, 1500.0, 1, 2);
  t.AddServer(r1, kCap);
  const NodeId r2 = t.AddSwitchNode(root, 1, 2500.0, 1, 3);
  t.AddServer(r2, kCap);
  t.AddServer(r2, Resource{.cpu = 1600, .mem_gb = 64, .net_mbps = 400});
  t.AddServer(root, kCap);
  const NodeId p1 = t.AddSwitchNode(root, 2, 3500.0, 1, 4);
  const NodeId r3 = t.AddSwitchNode(p1, 1, 900.0, 1, 1);
  t.AddServer(r3, kCap);
  t.AddServer(p1, Resource{.cpu = 1600, .mem_gb = 64, .net_mbps = 600});
  return t;
}

// Reference LCA walk: depths counted by climbing to the root, then a-side,
// b-side and alternating climbs in the order ForEachPathUplink promises.
template <typename Fn>
void ReferencePathWalk(const Topology& t, ServerId a, ServerId b, Fn fn) {
  NodeId na = t.server_node(a);
  NodeId nb = t.server_node(b);
  int da = ParentChainDepth(t, na), db = ParentChainDepth(t, nb);
  while (da > db) {
    fn(na, true);
    na = t.node(na).parent;
    --da;
  }
  while (db > da) {
    fn(nb, false);
    nb = t.node(nb).parent;
    --db;
  }
  while (na != nb) {
    fn(na, true);
    fn(nb, false);
    na = t.node(na).parent;
    nb = t.node(nb).parent;
  }
}

TEST(PathWalker, UnevenTreeHasServersAtEveryDepth) {
  const Topology t = UnevenTree();
  ASSERT_EQ(t.num_servers(), 8);
  std::set<int> depths;
  for (int s = 0; s < t.num_servers(); ++s) {
    depths.insert(t.path_hop(t.server_node(ServerId{s})).depth);
  }
  EXPECT_EQ(depths, (std::set<int>{1, 2, 3, 4}));
}

TEST(PathWalker, HopDistanceMatchesBruteForce) {
  const Topology t = UnevenTree();
  for (int a = 0; a < t.num_servers(); ++a) {
    for (int b = 0; b < t.num_servers(); ++b) {
      // Brute force: the first ancestor of b (itself included) that is also
      // an ancestor of a is the LCA; the path is both climbs to it.
      std::vector<NodeId> up_a;
      for (NodeId n = t.server_node(ServerId{a}); n.valid();
           n = t.node(n).parent) {
        up_a.push_back(n);
      }
      int hops_b = 0;
      NodeId lca = t.server_node(ServerId{b});
      while (std::find(up_a.begin(), up_a.end(), lca) == up_a.end()) {
        lca = t.node(lca).parent;
        ++hops_b;
      }
      const auto hops_a = std::find(up_a.begin(), up_a.end(), lca) -
                          up_a.begin();
      EXPECT_EQ(t.HopDistance(ServerId{a}, ServerId{b}),
                static_cast<int>(hops_a) + hops_b)
          << a << " -> " << b;
    }
  }
}

TEST(PathWalker, FlowRoutesMatchReferenceWalk) {
  const Topology t = UnevenTree();
  const FlowSimulator sim(t);
  for (int a = 0; a < t.num_servers(); ++a) {
    for (int b = 0; b < t.num_servers(); ++b) {
      std::vector<int> expect, down;
      ReferencePathWalk(t, ServerId{a}, ServerId{b},
                        [&](NodeId n, bool from_a) {
                          if (from_a) {
                            expect.push_back(2 * n.value());
                          } else {
                            down.push_back(2 * n.value() + 1);
                          }
                        });
      expect.insert(expect.end(), down.rbegin(), down.rend());
      EXPECT_EQ(sim.Route(ServerId{a}, ServerId{b}), expect)
          << a << " -> " << b;
    }
  }
}

TEST(PathWalker, TrafficUplinkLoadsMatchReferenceWalkBitForBit) {
  const Topology t = UnevenTree();
  // One container per server, every pair talking with uneven flow counts
  // and demands, so each uplink sums many distinct per-edge loads.
  Workload w;
  std::vector<Resource> demands;
  Placement p;
  for (int s = 0; s < t.num_servers(); ++s) {
    Container c;
    c.id = ContainerId{s};
    w.containers.push_back(c);
    demands.push_back(
        Resource{.cpu = 100, .mem_gb = 1, .net_mbps = 37.3 * (s + 1)});
    p.server_of.push_back(ServerId{s});
  }
  for (int a = 0; a < t.num_servers(); ++a) {
    for (int b = a + 1; b < t.num_servers(); ++b) {
      w.edges.push_back({ContainerId{a}, ContainerId{b},
                         1.0 + 0.7 * ((a * 5 + b * 3) % 7), false});
    }
  }
  const std::vector<std::uint8_t> active(w.containers.size(), 1);
  const TrafficEstimate est = EstimateTraffic(w, p, demands, active, t);

  std::vector<double> expect(static_cast<std::size_t>(t.num_nodes()), 0.0);
  for (std::size_t ei = 0; ei < w.edges.size(); ++ei) {
    ReferencePathWalk(t, p.of(w.edges[ei].a), p.of(w.edges[ei].b),
                      [&](NodeId n, bool) {
                        expect[static_cast<std::size_t>(n.value())] +=
                            est.edge_mbps[ei];
                      });
  }
  ASSERT_EQ(est.node_uplink_mbps.size(), expect.size());
  for (std::size_t n = 0; n < expect.size(); ++n) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(est.node_uplink_mbps[n]),
              std::bit_cast<std::uint64_t>(expect[n]))
        << "node " << n;
  }
}

// --- Table I data -----------------------------------------------------------------

TEST(TableOne, FiveDataCenters) {
  const auto& dcs = TableOneDataCenters();
  ASSERT_EQ(dcs.size(), 5u);
  EXPECT_EQ(dcs[0].servers, 98304);   // Google
  EXPECT_EQ(dcs[1].servers, 184320);  // Facebook
  EXPECT_EQ(dcs[2].servers, 46080);   // VL2
  EXPECT_EQ(dcs[3].servers, 32768);   // Fat-tree(32)
  EXPECT_EQ(dcs[4].servers, 93312);   // Fat-tree(72)
  for (const auto& dc : dcs) {
    EXPECT_GT(dc.tor_switches, 0);
    EXPECT_GT(dc.server_max_watts, 0.0);
    EXPECT_GT(dc.tor_switch_watts, 0.0);
  }
}

}  // namespace
}  // namespace gl
