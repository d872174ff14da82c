// Construction of the two graphs of Sec. III-A.
//
//   * Container graph — one vertex per *active* container, weighted by its
//     demand vector (balance weight: demand normalised against the average
//     server capacity); edges weighted by distinct-flow counts. Replicas
//     (containers sharing a replica_set) get a negative anti-affinity edge
//     so min-cut separates them into different fault domains (Sec. IV-C).
//   * Capacity graph — one vertex per server, weighted by its capacity;
//     edge weights are shortest-path lengths in the DCN topology. Goldilocks
//     proper navigates the Topology directly (the capacity graph's max-cut
//     substructures are exactly the topology subtrees), but the explicit
//     graph is exposed for analysis and tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "topology/topology.h"
#include "workload/container.h"

namespace gl {

struct ContainerGraph {
  Graph graph;
  // Graph vertex index → ContainerId.
  std::vector<ContainerId> vertex_to_container;
  // ContainerId value → vertex index, -1 if inactive.
  std::vector<VertexIndex> container_to_vertex;
};

struct ContainerGraphOptions {
  // Edge weight used to push replicas apart; magnitude should exceed any
  // legitimate flow count so the cut always prefers separating replicas.
  double replica_anti_affinity = -1.0e5;
};

// One epoch's container graph: the active containers in workload order.
struct EpochGraph {
  CsrGraph graph;
  std::vector<Resource> demands;  // per vertex
  std::vector<ContainerId> vertex_to_container;
  std::vector<VertexIndex> container_to_vertex;  // -1 if inactive
};

// Membership stamps: `stamp[c] == generation` means c is in the current set.
class MembershipStamp {
 public:
  explicit MembershipStamp(std::size_t n) : stamp_(n, 0) {}
  void Begin(std::span<const ContainerId> members) {
    ++generation_;
    for (const auto c : members) {
      stamp_[static_cast<std::size_t>(c.value())] = generation_;
    }
  }
  [[nodiscard]] bool Contains(int container_value) const {
    return stamp_[static_cast<std::size_t>(container_value)] == generation_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
};

// The container graph over *all* of a workload's containers, built once per
// Workload (DESIGN.md §11): its edges never change, only demands and the
// active set do. A Workload must not be mutated while a graph built from it
// is in use; BuiltFrom() checks identity, not content.
class WorkloadGraph {
 public:
  explicit WorkloadGraph(const Workload& workload,
                         const ContainerGraphOptions& opts = {});

  [[nodiscard]] bool BuiltFrom(const Workload& workload) const {
    return &workload == source_ &&
           workload.containers.size() == order_.size() &&
           workload.edges.size() == num_edges_;
  }

  // The active containers' graph, equal to BuildContainerGraph's in vertex
  // order, arc order and every weight; `out`'s storage is reused.
  void Compact(std::span<const Resource> demands,
               std::span<const std::uint8_t> active,
               const Resource& reference_capacity, EpochGraph& out) const;

  // Demand of a group assuming its members are colocated: CPU and memory
  // add up; each member's network demand is scaled by the fraction of its
  // flow weight that crosses the group boundary (colocated chatter never
  // reaches the NIC). Members with no modelled flows keep their full
  // network demand — their traffic goes somewhere we cannot see.
  [[nodiscard]] Resource EffectiveDemand(std::span<const ContainerId> members,
                                         std::span<const Resource> demands,
                                         MembershipStamp& stamp) const;

  // The factor EffectiveDemand scales each member's network demand by (its
  // external flow fraction, 1 without modelled flows), for every member of
  // `groups`, written at the member's container id. It depends on
  // membership only, so a grouping that is kept pays for it once.
  void ExternalFractions(const std::vector<std::vector<ContainerId>>& groups,
                         MembershipStamp& stamp,
                         std::vector<double>& fraction) const;

 private:
  const Workload* source_;  // identity only, never dereferenced
  std::size_t num_edges_;
  std::vector<std::int32_t> order_;  // container ids in workload order
  // Per container id: its non-loop edges unmerged, in edge order.
  std::vector<std::size_t> edge_row_;
  std::vector<std::int32_t> edge_peer_;
  std::vector<double> edge_w_ GL_UNITS(count);
  std::vector<double> flow_total_ GL_UNITS(count);  // positive flows only
  // Per container id: the partition arcs (Graph::AddEdge's merge of the
  // edges, then the replica clique), targets as container ids.
  std::vector<std::size_t> row_;
  std::vector<std::int32_t> col_;
  std::vector<double> w_;
  // Replica set s is replica_members_[replica_sets_[s], replica_sets_[s+1]).
  std::vector<std::int32_t> replica_members_;
  std::vector<std::size_t> replica_sets_;

  [[nodiscard]] double ExternalFraction(std::size_t container,
                                        const MembershipStamp& stamp) const;
};

// EffectiveDemand of `members` from ExternalFractions of a grouping that
// contains them as one group: the same sums in the same order, bit for bit.
[[nodiscard]] Resource ColocatedDemand(std::span<const ContainerId> members,
                                       std::span<const Resource> demands,
                                       std::span<const double> fraction);

// The container graph of one epoch as a Graph (tests, benches and the
// epoch benchmark's replica): a WorkloadGraph compacted under `active`.
ContainerGraph BuildContainerGraph(const Workload& workload,
                                   std::span<const Resource> demands,
                                   std::span<const std::uint8_t> active,
                                   const Resource& reference_capacity,
                                   const ContainerGraphOptions& opts = {});

// Capacity graph over all servers; edge weight = hop distance. Quadratic in
// the number of servers — intended for testbed-scale analysis (Fig. 4).
Graph BuildCapacityGraph(const Topology& topo);

}  // namespace gl
