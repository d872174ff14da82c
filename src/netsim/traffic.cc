#include "netsim/traffic.h"

#include <algorithm>

#include "common/check.h"

namespace gl {

TrafficEstimate EstimateTraffic(const Workload& workload,
                                const Placement& placement,
                                std::span<const Resource> demands,
                                std::span<const std::uint8_t> active,
                                const Topology& topo) {
  GOLDILOCKS_CHECK_EQ(placement.server_of.size(), workload.containers.size());
  TrafficEstimate out;
  out.edge_mbps.assign(workload.edges.size(), 0.0);
  out.node_uplink_mbps.assign(static_cast<std::size_t>(topo.num_nodes()),
                              0.0);

  // Server of each live (active and placed) container, invalid otherwise;
  // an edge is live when both ends are.
  std::vector<ServerId> live(workload.containers.size(), ServerId::invalid());
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (active[i]) live[i] = placement.server_of[i];
  }
  // Total flow weight incident to each container (over live edges only).
  std::vector<double> total_flows(workload.containers.size(), 0.0);
  for (const auto& e : workload.edges) {
    const auto ia = static_cast<std::size_t>(e.a.value());
    const auto ib = static_cast<std::size_t>(e.b.value());
    if (!live[ia].valid() || !live[ib].valid()) continue;
    total_flows[ia] += std::abs(e.flows);
    total_flows[ib] += std::abs(e.flows);
  }

  for (std::size_t ei = 0; ei < workload.edges.size(); ++ei) {
    const auto& e = workload.edges[ei];
    const auto ia = static_cast<std::size_t>(e.a.value());
    const auto ib = static_cast<std::size_t>(e.b.value());
    if (!live[ia].valid() || !live[ib].valid() || e.flows <= 0.0) continue;
    // Each endpoint pushes a share of its network demand over this edge.
    const double share_a =
        total_flows[ia] > 0.0
            ? demands[ia].net_mbps * (e.flows / total_flows[ia])
            : 0.0;
    const double share_b =
        total_flows[ib] > 0.0
            ? demands[ib].net_mbps * (e.flows / total_flows[ib])
            : 0.0;
    const double traffic = 0.5 * (share_a + share_b);
    out.edge_mbps[ei] = traffic;

    // Load every uplink bundle on the tree path (none when both ends share
    // a server: intra-server traffic never leaves the host).
    topo.ForEachPathUplink(live[ia], live[ib], [&](NodeId n, bool) {
      out.node_uplink_mbps[static_cast<std::size_t>(n.value())] += traffic;
    });
  }
  return out;
}

}  // namespace gl
