// Virtual-Cluster placement on asymmetric topologies (Sec. IV).
//
// Each container group is abstracted as an Oktopus-style Virtual Cluster
// [46]: containers hang off a virtual switch, and container i needs
// bandwidth B_i (its network demand — conservatively covering intra- and
// inter-group traffic). Placing a group on a subtree T requires, besides
// CPU/memory room on T's servers, a reservation on T's outbound uplink of
//
//   R_Gk(T) = min( Σ_{q∈Gka} B_q,
//                  Σ_{r∈Gkb} B_r                       [intra, Eq. 4]
//                + Σ_{y<k} Σ_{r∈Gyb} B_r               [placed groups, Eq. 5]
//                + Σ_{z>k} Σ_{s∈Gz}  B_s )             [pending groups, Eq. 5]
//
// where component a is the part of the group inside T and component b the
// part outside. Groups are placed on the smallest left-most subtree that can
// hold them entirely; a group that fits no subtree is split across racks
// with per-component reservations (the paper's component-a/component-b
// case). Heterogeneous servers are handled naturally: fitting is checked
// against each server's own capacity.
#pragma once

#include <span>
#include <vector>

#include "graph/scratch.h"
#include "schedulers/placement.h"
#include "workload/container.h"

namespace gl {

struct VirtualClusterOptions {
  double pee_utilization GL_UNITS(dimensionless) = 0.70;
  double memory_ceiling GL_UNITS(dimensionless) = 1.0;
};

struct VirtualClusterStats {
  int groups_placed_whole = 0;   // found a single subtree
  int groups_split = 0;          // spilled across subtrees
  int bandwidth_violations = 0;  // containers placed despite an infeasible
                                 // reservation (placement never fails hard)
  int subtree_bound_rejections = 0;  // probes rejected without a scan
};

class VirtualClusterPlacer {
 public:
  VirtualClusterPlacer(const Topology& topo, VirtualClusterOptions opts);

  // Groups in locality order; demands indexed by ContainerId value.
  Placement PlaceGroups(const std::vector<std::vector<ContainerId>>& groups,
                        std::span<const Resource> demands,
                        std::size_t num_containers);

  [[nodiscard]] const VirtualClusterStats& stats() const { return stats_; }
  // Reservation currently required on a node's uplink (after PlaceGroups).
  [[nodiscard]] double ReservationOn(NodeId node) const
      GL_UNITS(bits_per_sec);

 private:
  struct Tentative {
    // container → server chosen in this attempt.
    std::vector<std::pair<ContainerId, ServerId>> assignment;
  };

  [[nodiscard]] const std::vector<ServerId>& ServersCached(NodeId subtree);

  // Greedy fill of `containers` (whose demands sum to `total`) into servers
  // under `subtree`; returns true and the assignment if every container
  // fits (capacity only). Allocates nothing once `out` has grown to the
  // group size.
  bool TryFill(std::span<const ContainerId> containers,
               std::span<const Resource> demands, const Resource& total,
               NodeId subtree, Tentative& out);

  // Reservation Σ_g R_g(n) on node n's uplink, with a tentative b_in delta
  // `d_in` applied to node n for group `g_extra` (-1 for none).
  [[nodiscard]] double ReservationWith(
      NodeId n, int g_extra, double d_in GL_UNITS(bits_per_sec),
      double extra_total GL_UNITS(bits_per_sec)) const GL_UNITS(bits_per_sec);

  // True if committing `t` for group g keeps every affected uplink feasible.
  bool BandwidthFeasible(int g, const Tentative& t,
                         std::span<const Resource> demands);

  void Commit(int g, const Tentative& t, std::span<const Resource> demands,
              Placement& placement);

  const Topology& topo_;
  VirtualClusterOptions opts_;
  VirtualClusterStats stats_;

  std::vector<Resource> loads_;     // per server
  std::vector<Resource> ceilings_;  // per server: the PEE packing ceiling
  // Per node, over the servers under it: Σ (ceiling − load), kept by
  // Commit, and Σ (ceiling·ε + ε), the most WithinCap lets loads exceed
  // the ceilings by. TryFill's O(1) subtree bound reads both.
  std::vector<Resource> room_;
  std::vector<Resource> slack_;
  // Switch nodes per level (index = level), left-to-right.
  std::vector<std::vector<NodeId>> nodes_at_level_;
  // TryFill scratch: tentative load per server of the current probe, valid
  // where fill_mark_ is set; fill_touched_ lists the marked servers so each
  // probe clears only what it used.
  std::vector<Resource> fill_added_;
  std::vector<std::uint8_t> fill_mark_;
  std::vector<ServerId> fill_touched_;
  // Per group: total bandwidth Σ B_i of its members.
  std::vector<double> b_total_ GL_UNITS(bits_per_sec);
  std::vector<std::uint8_t> group_touched_;  // group has placed members
  // Σ b_total of untouched / touched groups.
  double pending_total_bw_ GL_UNITS(bits_per_sec) = 0.0;
  double placed_total_bw_ GL_UNITS(bits_per_sec) = 0.0;
  // Per node: Σ placed b_in.
  std::vector<double> p_sum_ GL_UNITS(bits_per_sec);
  // node → (group, b_in) pairs in ascending group order. Sparse: only
  // nodes on ancestor paths appear. ReservationWith sums doubles over it,
  // so the order is fixed; groups are placed in ascending order, so Commit
  // appends.
  std::vector<std::vector<std::pair<int, double>>> node_groups_;
  // BandwidthFeasible scratch: tentative b_in per node of one probe.
  GroupAccumulator delta_;
  // Per node: servers under it, filled on first use.
  std::vector<std::vector<ServerId>> servers_under_;
};

}  // namespace gl
