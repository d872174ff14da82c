// Tests for the workload-lifetime container graph (core/graph_builder.h,
// DESIGN.md §11): each epoch's compaction must equal the container graph
// that Graph::AddEdge builds from scratch, kept here as the oracle — rows,
// arc order and weights bit for bit, balance weights and their totals,
// demands, and the effective group demands the scheduler books — and the
// CSR sub-view must keep Graph::InducedSubgraph's arc order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/graph_builder.h"
#include "graph/csr.h"
#include "obs/metrics.h"

namespace gl {
namespace {

const Resource kRef{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};
constexpr double kAnti = -1.0e5;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The container graph as built before the workload graph existed: one
// AddVertex per active container in workload order, one AddEdge per edge,
// then one negative clique per replica set (sets in id order, members in
// container order).
struct Oracle {
  Graph graph;
  std::vector<ContainerId> vertex_to_container;
  std::vector<VertexIndex> container_to_vertex;
  std::uint64_t anti_affinity_edges = 0;
};

Oracle BuildOracle(const Workload& w, std::span<const Resource> demands,
                   std::span<const std::uint8_t> active) {
  Oracle o;
  o.container_to_vertex.assign(w.containers.size(), -1);
  for (const auto& c : w.containers) {
    const auto i = static_cast<std::size_t>(c.id.value());
    if (!active[i]) continue;
    o.container_to_vertex[i] =
        o.graph.AddVertex(demands[i], demands[i].NormalizedL1(kRef));
    o.vertex_to_container.push_back(c.id);
  }
  for (const auto& e : w.edges) {
    const auto va = o.container_to_vertex[static_cast<std::size_t>(e.a.value())];
    const auto vb = o.container_to_vertex[static_cast<std::size_t>(e.b.value())];
    if (va >= 0 && vb >= 0) o.graph.AddEdge(va, vb, e.flows);
  }
  std::vector<std::pair<GroupId, VertexIndex>> members;
  for (const auto& c : w.containers) {
    const auto i = static_cast<std::size_t>(c.id.value());
    if (active[i] && c.replica_set.valid()) {
      members.emplace_back(c.replica_set, o.container_to_vertex[i]);
    }
  }
  std::stable_sort(members.begin(), members.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1;
         j < members.size() && members[j].first == members[i].first; ++j) {
      o.graph.AddEdge(members[i].second, members[j].second, kAnti);
      ++o.anti_affinity_edges;
    }
  }
  return o;
}

// The effective demand as computed before: per-edge positive-flow peers in
// edge order, scanned per member against the group's membership.
Resource OracleEffectiveDemand(const Workload& w,
                               std::span<const ContainerId> members,
                               std::span<const Resource> demands) {
  std::vector<std::uint8_t> in(w.containers.size(), 0);
  for (const auto c : members) in[static_cast<std::size_t>(c.value())] = 1;
  Resource out;
  for (const auto c : members) {
    const Resource& d = demands[static_cast<std::size_t>(c.value())];
    out.cpu += d.cpu;
    out.mem_gb += d.mem_gb;
    double total = 0.0;
    for (const auto& e : w.edges) {
      if (e.flows <= 0.0) continue;
      if (e.a == c) total += e.flows;
      if (e.b == c) total += e.flows;
    }
    if (total <= 0.0) {
      out.net_mbps += d.net_mbps;
      continue;
    }
    double external = 0.0;
    for (const auto& e : w.edges) {
      if (e.flows <= 0.0) continue;
      if (e.a == c && !in[static_cast<std::size_t>(e.b.value())]) {
        external += e.flows;
      }
      if (e.b == c && !in[static_cast<std::size_t>(e.a.value())]) {
        external += e.flows;
      }
    }
    out.net_mbps += d.net_mbps * (external / total);
  }
  return out;
}

// Random workload with everything the merge rules must handle: parallel
// edges in both orientations, self-loops, flows <= 0, fractional flows
// (so summation order shows in the bits), replica sets numbered against
// container order, and replica pairs that also exchange flows.
Workload RandomWorkload(int n, std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  for (int i = 0; i < n; ++i) {
    Container c;
    c.id = ContainerId{i};
    if (rng.NextBelow(3) == 0) {
      c.replica_set = GroupId{static_cast<int>(9 - rng.NextBelow(5))};
    }
    w.containers.push_back(c);
  }
  const auto flows = [&rng] {
    switch (rng.NextBelow(6)) {
      case 0: return 0.0;
      case 1: return -0.3 * static_cast<double>(1 + rng.NextBelow(4));
      default: return 0.1 * static_cast<double>(1 + rng.NextBelow(97));
    }
  };
  for (int e = 0; e < 3 * n; ++e) {
    const auto a = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(n)));
    const auto b = rng.NextBelow(8) == 0
                       ? a
                       : static_cast<int>(
                             rng.NextBelow(static_cast<std::uint64_t>(n)));
    w.edges.push_back({ContainerId{a}, ContainerId{b}, flows()});
    if (rng.NextBelow(4) == 0) {  // a parallel edge, either orientation
      const bool flip = rng.NextBelow(2) == 0;
      w.edges.push_back({ContainerId{flip ? b : a}, ContainerId{flip ? a : b},
                         flows()});
    }
  }
  return w;
}

std::vector<Resource> RandomDemands(std::size_t n, Rng& rng) {
  std::vector<Resource> d(n);
  for (auto& r : d) {
    r = {.cpu = 1.0 + static_cast<double>(rng.NextBelow(900)) * 0.37,
         .mem_gb = 0.5 + static_cast<double>(rng.NextBelow(64)) * 0.11,
         .net_mbps = static_cast<double>(rng.NextBelow(400)) * 0.53};
  }
  return d;
}

std::vector<std::uint8_t> RandomMask(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> m(n);
  const auto keep = 1 + rng.NextBelow(4);  // 1/5 .. 4/5 active
  for (auto& a : m) a = rng.NextBelow(5) < keep ? 1 : 0;
  return m;
}

void ExpectSameRows(const CsrGraph& got, const Graph& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(Bits(got.total_balance_weight()),
            Bits(want.total_balance_weight()));
  for (VertexIndex v = 0; v < want.num_vertices(); ++v) {
    EXPECT_EQ(Bits(got.balance_weight(v)), Bits(want.balance_weight(v)));
    EXPECT_EQ(Bits(got.degree_weight(v)), Bits(want.degree_weight(v)));
    const auto row = want.neighbors(v);
    const auto [to, ws] = got.arc_range(v);
    ASSERT_EQ(to.size(), row.size()) << "row " << v;
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(to[k], row[k].to) << "row " << v << " arc " << k;
      EXPECT_EQ(Bits(ws[k]), Bits(row[k].weight))
          << "row " << v << " arc " << k;
    }
  }
}

TEST(WorkloadGraph, EpochViewEqualsAddEdgeOracle) {
  auto& anti = obs::MetricsRegistry::Global().GetCounter(
      "graph.anti_affinity_edges", obs::MetricKind::kDeterministic);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Workload w = RandomWorkload(70, seed);
    const WorkloadGraph wg(w, {.replica_anti_affinity = kAnti});
    ASSERT_TRUE(wg.BuiltFrom(w));
    Rng rng(seed * 131);
    EpochGraph epoch;  // reused across masks, like the scheduler's
    for (int round = 0; round < 8; ++round) {
      const auto demands = RandomDemands(w.containers.size(), rng);
      const auto active = RandomMask(w.containers.size(), rng);
      const Oracle o = BuildOracle(w, demands, active);
      const auto anti_before = anti.value();
      wg.Compact(demands, active, kRef, epoch);
      EXPECT_EQ(anti.value() - anti_before, o.anti_affinity_edges);
      ExpectSameRows(epoch.graph, o.graph);
      EXPECT_EQ(epoch.vertex_to_container, o.vertex_to_container);
      EXPECT_EQ(epoch.container_to_vertex, o.container_to_vertex);
      ASSERT_EQ(epoch.demands.size(),
                static_cast<std::size_t>(o.graph.num_vertices()));
      for (VertexIndex v = 0; v < o.graph.num_vertices(); ++v) {
        EXPECT_EQ(epoch.demands[static_cast<std::size_t>(v)],
                  o.graph.demand(v));
      }
    }
  }
}

TEST(WorkloadGraph, BuildContainerGraphAdapterEqualsOracle) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    const Workload w = RandomWorkload(50, seed);
    Rng rng(seed);
    const auto demands = RandomDemands(w.containers.size(), rng);
    const auto active = RandomMask(w.containers.size(), rng);
    const Oracle o = BuildOracle(w, demands, active);
    const ContainerGraph cg = BuildContainerGraph(
        w, demands, active, kRef, {.replica_anti_affinity = kAnti});
    EXPECT_EQ(cg.graph.num_edges(), o.graph.num_edges());
    EXPECT_EQ(cg.graph.total_demand(), o.graph.total_demand());
    EXPECT_EQ(cg.vertex_to_container, o.vertex_to_container);
    CsrGraph csr;
    csr.BuildFrom(cg.graph);
    ExpectSameRows(csr, o.graph);
  }
}

TEST(WorkloadGraph, EffectiveDemandEqualsPerEdgeOracle) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    const Workload w = RandomWorkload(60, seed);
    const WorkloadGraph wg(w);
    Rng rng(seed);
    MembershipStamp stamp(w.containers.size());
    for (int round = 0; round < 20; ++round) {
      const auto demands = RandomDemands(w.containers.size(), rng);
      std::vector<ContainerId> group;
      for (const auto& c : w.containers) {
        if (rng.NextBelow(4) == 0) group.push_back(c.id);
      }
      // Member order is part of the sum order: shuffle it.
      for (std::size_t i = group.size(); i > 1; --i) {
        std::swap(group[i - 1], group[rng.NextBelow(i)]);
      }
      const Resource got = wg.EffectiveDemand(group, demands, stamp);
      const Resource want = OracleEffectiveDemand(w, group, demands);
      EXPECT_EQ(Bits(got.cpu), Bits(want.cpu));
      EXPECT_EQ(Bits(got.mem_gb), Bits(want.mem_gb));
      EXPECT_EQ(Bits(got.net_mbps), Bits(want.net_mbps));
    }
  }
}

// A kept grouping's drift check sums with fractions cached once per
// grouping; over fresh demands each epoch it must equal EffectiveDemand.
TEST(WorkloadGraph, CachedFractionsGiveEffectiveDemandBitForBit) {
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    const Workload w = RandomWorkload(60, seed);
    const WorkloadGraph wg(w);
    Rng rng(seed);
    std::vector<std::vector<ContainerId>> groups(1 + rng.NextBelow(6));
    for (const auto& c : w.containers) {
      groups[rng.NextBelow(groups.size())].push_back(c.id);
    }
    for (auto& group : groups) {
      for (std::size_t i = group.size(); i > 1; --i) {
        std::swap(group[i - 1], group[rng.NextBelow(i)]);
      }
    }
    MembershipStamp stamp(w.containers.size());
    std::vector<double> fraction;
    wg.ExternalFractions(groups, stamp, fraction);
    for (int round = 0; round < 10; ++round) {
      const auto demands = RandomDemands(w.containers.size(), rng);
      for (const auto& group : groups) {
        const Resource got = ColocatedDemand(group, demands, fraction);
        const Resource want = wg.EffectiveDemand(group, demands, stamp);
        EXPECT_EQ(Bits(got.cpu), Bits(want.cpu));
        EXPECT_EQ(Bits(got.mem_gb), Bits(want.mem_gb));
        EXPECT_EQ(Bits(got.net_mbps), Bits(want.net_mbps));
      }
    }
  }
}

TEST(WorkloadGraph, RebuiltOnlyForAnotherWorkload) {
  const Workload a = RandomWorkload(20, 3);
  Workload b = a;
  const WorkloadGraph wg(a);
  EXPECT_TRUE(wg.BuiltFrom(a));
  EXPECT_FALSE(wg.BuiltFrom(b));  // equal content, another object
}

TEST(CsrSubView, KeepsInducedSubgraphArcOrder) {
  const Workload w = RandomWorkload(80, 5);
  Rng rng(77);
  const auto demands = RandomDemands(w.containers.size(), rng);
  const std::vector<std::uint8_t> all(w.containers.size(), 1);
  const Oracle o = BuildOracle(w, demands, all);
  CsrGraph csr;
  csr.BuildFrom(o.graph);
  CsrGraph sub;
  std::vector<VertexIndex> remap;
  for (int round = 0; round < 10; ++round) {
    std::vector<VertexIndex> verts;
    for (VertexIndex v = 0; v < o.graph.num_vertices(); ++v) {
      if (rng.NextBelow(3) != 0) verts.push_back(v);
    }
    sub.BuildInduced(csr, verts, remap);
    ExpectSameRows(sub, o.graph.InducedSubgraph(verts));
    // The scratch remap is left all -1 for the next call.
    EXPECT_TRUE(std::all_of(remap.begin(), remap.end(),
                            [](VertexIndex x) { return x == -1; }));
  }
}

}  // namespace
}  // namespace gl
