// Fig. 7 of the paper: real partitioning results.
//  (a) 224 Memcached containers of the Twitter content caching workload,
//      partitioned by the recursive min-cut algorithm; each partition maps
//      to one server.
//  (b) the 100-vertex snapshot of the Microsoft search trace graph, split
//      by the same recursion with every vertex one unit of demand and a
//      group capacity of 20 units; the group count comes out of the
//      recursion (5 for this snapshot).
#include <algorithm>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "common/table.h"
#include "core/goldilocks.h"
#include "graph/partitioner.h"
#include "workload/msr_trace.h"
#include "workload/scenarios.h"

int main() {
  using namespace gl;

  PrintBanner("Fig 7(a): partitioning 224 Twitter caching containers");
  TwitterScenarioOptions opts;
  opts.num_containers = 224;
  const auto scenario = MakeTwitterCachingScenario(opts);
  const auto demands = scenario->DemandsAt(30);
  const auto active = scenario->ActiveAt(30);
  const Topology topo =
      Topology::LeafSpine(14, 2, 2,
                          Resource{.cpu = 3200, .mem_gb = 64,
                                   .net_mbps = 1000},
                          1000.0);
  GoldilocksScheduler scheduler;
  SchedulerInput input;
  input.workload = &scenario->workload();
  input.demands = demands;
  input.active = active;
  input.topology = &topo;
  const Placement p = scheduler.Place(input);

  std::map<int, int> group_sizes;
  for (const int g : scheduler.last_grouping()) {
    if (g >= 0) ++group_sizes[g];
  }
  std::printf("%d containers → %zu partitions (cells of Fig 7a)\n",
              scenario->workload().size(), group_sizes.size());
  Table ta({"partition", "containers", "server"});
  for (const auto& [g, size] : group_sizes) {
    ServerId server = ServerId::invalid();
    for (std::size_t c = 0; c < scheduler.last_grouping().size(); ++c) {
      if (scheduler.last_grouping()[c] == g) {
        server = p.server_of[c];
        break;
      }
    }
    ta.AddRow({Table::Int(g), Table::Int(size), Table::Int(server.value())});
  }
  ta.Print();

  // Partition quality: how much communication stays inside partitions.
  double internal = 0.0, total = 0.0;
  for (const auto& e : scenario->workload().edges) {
    total += e.flows;
    if (scheduler.last_grouping()[static_cast<std::size_t>(e.a.value())] ==
        scheduler.last_grouping()[static_cast<std::size_t>(e.b.value())]) {
      internal += e.flows;
    }
  }
  std::printf("Intra-partition communication: %.1f%% of all flows\n",
              100.0 * internal / total);

  PrintBanner("Fig 7(b): 100-vertex Microsoft-trace snapshot, groups of <= 20");
  Rng rng(19);
  MsrTraceOptions mopts;
  mopts.num_vertices = 1000;
  const auto trace = GenerateMsrSearchTrace(mopts, rng);
  // Snapshot: first 100 vertices, induced subgraph. Every vertex is one
  // unit of demand, so the fit predicate sizes groups by vertex count.
  constexpr int kSnapshot = 100;
  constexpr double kGroupCapacity = 20.0;
  Graph g;
  for (int v = 0; v < kSnapshot; ++v) g.AddVertex(Resource{.cpu = 1}, 1.0);
  int kept_edges = 0;
  for (const auto& e : trace.workload.edges) {
    if (e.a.value() < kSnapshot && e.b.value() < kSnapshot) {
      g.AddEdge(e.a.value(), e.b.value(), e.flows);
      ++kept_edges;
    }
  }
  PartitionOptions popts;
  popts.balance_tolerance = 0.0;
  const auto r = RecursivePartition(
      g,
      [](const Resource& d, int) { return d.cpu <= kGroupCapacity; },
      popts, [](const Resource& d) { return d.cpu / kGroupCapacity; });
  Table tb({"partition", "vertices"});
  for (int i = 0; i < r.num_groups; ++i) {
    tb.AddRow({Table::Int(i),
               Table::Int(r.group_size[static_cast<std::size_t>(i)])});
  }
  tb.Print();
  std::printf(
      "Snapshot: %d vertices, %d edges; min-cut across %d partitions: %.0f "
      "flow weight (%.1f%% of the snapshot total %.0f)\n",
      kSnapshot, kept_edges, r.num_groups, r.cut_weight,
      100.0 * r.cut_weight / std::max(1.0, g.total_positive_edge_weight()),
      g.total_positive_edge_weight());
  return 0;
}
