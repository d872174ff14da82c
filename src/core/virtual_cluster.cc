#include "core/virtual_cluster.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {

VirtualClusterPlacer::VirtualClusterPlacer(const Topology& topo,
                                           VirtualClusterOptions opts)
    : topo_(topo), opts_(opts) {
  const auto num_servers = static_cast<std::size_t>(topo.num_servers());
  const auto num_nodes = static_cast<std::size_t>(topo.num_nodes());
  loads_.resize(num_servers);
  ceilings_.reserve(num_servers);
  room_.resize(num_nodes);
  slack_.resize(num_nodes);
  for (int s = 0; s < topo.num_servers(); ++s) {
    const Resource& cap = topo.server_capacity(ServerId{s});
    const Resource ceiling{.cpu = cap.cpu * opts_.pee_utilization,
                           .mem_gb = cap.mem_gb * opts_.memory_ceiling,
                           .net_mbps = cap.net_mbps * opts_.pee_utilization};
    ceilings_.push_back(ceiling);
    const auto leaf =
        static_cast<std::size_t>(topo.server_node(ServerId{s}).value());
    room_[leaf] = ceiling;
    slack_[leaf] = ceiling * kResourceEps + Resource{kResourceEps,
                                                      kResourceEps,
                                                      kResourceEps};
  }
  // Subtree sums bottom-up: a node is always added after its parent.
  for (int n = topo.num_nodes() - 1; n >= 0; --n) {
    const NodeId parent = topo.path_hop(NodeId{n}).parent;
    if (!parent.valid()) continue;
    room_[static_cast<std::size_t>(parent.value())] +=
        room_[static_cast<std::size_t>(n)];
    slack_[static_cast<std::size_t>(parent.value())] +=
        slack_[static_cast<std::size_t>(n)];
  }
  // At least levels 0 and 1: the split path walks the racks.
  nodes_at_level_.resize(
      static_cast<std::size_t>(std::max(topo.num_levels(), 2)));
  for (int level = 1; level < topo.num_levels(); ++level) {
    nodes_at_level_[static_cast<std::size_t>(level)] =
        topo.NodesAtLevel(level);
  }
  fill_added_.resize(num_servers);
  fill_mark_.assign(num_servers, 0);
  p_sum_.assign(num_nodes, 0.0);
  node_groups_.resize(num_nodes);
  servers_under_.resize(num_nodes);
}

const std::vector<ServerId>& VirtualClusterPlacer::ServersCached(
    NodeId subtree) {
  auto& servers = servers_under_[static_cast<std::size_t>(subtree.value())];
  if (servers.empty()) servers = topo_.ServersUnder(subtree);
  return servers;
}

// Subtree bound: a fill that succeeds puts each container on a server
// whose load then passes WithinCap, i.e. stays at most ceiling·(1+ε)+ε, and
// every server it leaves alone already is (loads_ grow only through such
// fills). Summed over the subtree, per dimension, the probe's total demand
// is therefore at most Σ (ceiling − load) + Σ (ceiling·ε + ε) = room +
// slack: the scan fails on any probe above it. The sums are floating
// point. room_, the group total and each WithinCap test add up fewer than
// 10⁶ terms no larger than Σ ceiling, so their rounding stays below
// 10⁶·2⁻⁵³·Σ ceiling < 10⁻³·slack (slack ≥ ε·Σ ceiling), and the bound
// allows that much more. It only ever rejects probes the scan would fail.
bool VirtualClusterPlacer::TryFill(std::span<const ContainerId> containers,
                                   std::span<const Resource> demands,
                                   const Resource& total, NodeId subtree,
                                   Tentative& out) {
  out.assignment.clear();
  const auto ni = static_cast<std::size_t>(subtree.value());
  const Resource bound = room_[ni] + slack_[ni] * (1.0 + 1e-3);
  if (total.cpu > bound.cpu || total.mem_gb > bound.mem_gb ||
      total.net_mbps > bound.net_mbps) {
    ++stats_.subtree_bound_rejections;
    return false;
  }
  const auto& servers = ServersCached(subtree);
  bool all_placed = true;
  for (const auto c : containers) {
    const auto& d = demands[static_cast<std::size_t>(c.value())];
    bool placed = false;
    for (const auto s : servers) {
      const auto si = static_cast<std::size_t>(s.value());
      Resource load = loads_[si];
      if (fill_mark_[si]) load += fill_added_[si];
      if ((load + d).FitsIn(ceilings_[si])) {
        if (!fill_mark_[si]) {
          fill_mark_[si] = 1;
          fill_added_[si] = Resource{};
          fill_touched_.push_back(s);
        }
        fill_added_[si] += d;
        out.assignment.emplace_back(c, s);
        placed = true;
        break;
      }
    }
    if (!placed) {
      all_placed = false;
      break;
    }
  }
  for (const auto s : fill_touched_) {
    fill_mark_[static_cast<std::size_t>(s.value())] = 0;
  }
  fill_touched_.clear();
  return all_placed;
}

double VirtualClusterPlacer::ReservationWith(
    NodeId n, int g_extra, double d_in GL_UNITS(bits_per_sec),
    double extra_total GL_UNITS(bits_per_sec)) const GL_UNITS(bits_per_sec) {
  const auto ni = static_cast<std::size_t>(n.value());
  // Updated aggregates if the tentative component lands.
  const bool extra_new = g_extra >= 0 && !group_touched_[
      static_cast<std::size_t>(g_extra)];
  const double p_sum GL_UNITS(bits_per_sec) = p_sum_[ni] + d_in;
  const double placed_total GL_UNITS(bits_per_sec) =
      placed_total_bw_ + (extra_new ? extra_total : 0.0);
  const double pending_total GL_UNITS(bits_per_sec) =
      pending_total_bw_ - (extra_new ? extra_total : 0.0);

  auto r_for = [&](int g, double b_in GL_UNITS(bits_per_sec)) {
    const double b_tot GL_UNITS(bits_per_sec) =
        g == g_extra && extra_new ? extra_total
                                  : b_total_[static_cast<std::size_t>(g)];
    // Eq. (5): traffic crossing this uplink on behalf of group g is at most
    // the group's inside bandwidth, and at most its own outside component
    // plus everything the other groups keep outside (placed groups'
    // component b, pending groups in full).
    const double outside_own GL_UNITS(bits_per_sec) = b_tot - b_in;
    const double outside_others GL_UNITS(bits_per_sec) =
        (placed_total - b_tot) - (p_sum - b_in);
    const double need GL_UNITS(bits_per_sec) =
        outside_own + std::max(0.0, outside_others) + pending_total;
    return std::min(b_in, need);
  };

  double total GL_UNITS(bits_per_sec) = 0.0;
  bool g_extra_counted = false;
  for (const auto& [g, b_in] : node_groups_[ni]) {
    double b GL_UNITS(bits_per_sec) = b_in;
    if (g == g_extra) {
      b += d_in;
      g_extra_counted = true;
    }
    total += r_for(g, b);
  }
  if (!g_extra_counted && g_extra >= 0 && d_in > 0.0) {
    total += r_for(g_extra, d_in);
  }
  return total;
}

bool VirtualClusterPlacer::BandwidthFeasible(
    int g, const Tentative& t, std::span<const Resource> demands) {
  // b_in deltas along every ancestor path of the tentative servers.
  const double extra_total GL_UNITS(bits_per_sec) =
      b_total_[static_cast<std::size_t>(g)];
  delta_.Reset(static_cast<std::size_t>(topo_.num_nodes()));
  for (const auto& [c, s] : t.assignment) {
    const double bw GL_UNITS(bits_per_sec) =
        demands[static_cast<std::size_t>(c.value())].net_mbps;
    for (NodeId n = topo_.server_node(s); n.valid();
         n = topo_.path_hop(n).parent) {
      delta_.Add(n.value(), bw);
    }
  }
  // Every affected uplink must stay feasible, so the verdict does not depend
  // on the order the nodes are checked in.
  for (const int node_value : delta_.touched()) {
    const NodeId n{node_value};
    if (!topo_.path_hop(n).parent.valid()) continue;  // root has no uplink
    const double need GL_UNITS(bits_per_sec) =
        ReservationWith(n, g, delta_.Get(node_value), extra_total);
    if (!WithinCap(need, topo_.uplink_capacity(n))) return false;
  }
  return true;
}

void VirtualClusterPlacer::Commit(int g, const Tentative& t,
                                  std::span<const Resource> demands,
                                  Placement& placement) {
  const auto gi = static_cast<std::size_t>(g);
  if (!group_touched_[gi]) {
    group_touched_[gi] = 1;
    placed_total_bw_ += b_total_[gi];
    pending_total_bw_ -= b_total_[gi];
  }
  for (const auto& [c, s] : t.assignment) {
    const auto ci = static_cast<std::size_t>(c.value());
    const Resource& d = demands[ci];
    loads_[static_cast<std::size_t>(s.value())] += d;
    placement.server_of[ci] = s;
    for (NodeId n = topo_.server_node(s); n.valid();
         n = topo_.path_hop(n).parent) {
      const auto ni = static_cast<std::size_t>(n.value());
      room_[ni] -= d;
      // Groups commit in ascending order, so g's entry is the last one or
      // does not exist yet.
      auto& entries = node_groups_[ni];
      GOLDILOCKS_CHECK(entries.empty() || entries.back().first <= g);
      if (entries.empty() || entries.back().first != g) {
        entries.emplace_back(g, 0.0);
      }
      entries.back().second += d.net_mbps;
      p_sum_[ni] += d.net_mbps;
    }
  }
}

Placement VirtualClusterPlacer::PlaceGroups(
    const std::vector<std::vector<ContainerId>>& groups,
    std::span<const Resource> demands, std::size_t num_containers) {
  obs::TraceSpan span("vc.place_groups",
                      static_cast<std::int64_t>(groups.size()));
  Placement placement;
  placement.server_of.assign(num_containers, ServerId::invalid());

  const int num_groups = static_cast<int>(groups.size());
  b_total_.assign(static_cast<std::size_t>(num_groups), 0.0);
  group_touched_.assign(static_cast<std::size_t>(num_groups), 0);
  pending_total_bw_ = 0.0;
  placed_total_bw_ = 0.0;
  for (int g = 0; g < num_groups; ++g) {
    for (const auto c : groups[static_cast<std::size_t>(g)]) {
      b_total_[static_cast<std::size_t>(g)] +=
          demands[static_cast<std::size_t>(c.value())].net_mbps;
    }
    pending_total_bw_ += b_total_[static_cast<std::size_t>(g)];
  }

  Tentative t;  // reused by every probe
  for (int g = 0; g < num_groups; ++g) {
    const auto& group = groups[static_cast<std::size_t>(g)];
    if (group.empty()) continue;
    Resource total;
    for (const auto c : group) {
      total += demands[static_cast<std::size_t>(c.value())];
    }

    // Try the smallest left-most subtree that can host the whole group.
    bool placed_whole = false;
    for (int level = 1; level < topo_.num_levels() && !placed_whole;
         ++level) {
      for (const auto node :
           nodes_at_level_[static_cast<std::size_t>(level)]) {
        if (!TryFill(group, demands, total, node, t)) continue;
        if (!BandwidthFeasible(g, t, demands)) continue;
        Commit(g, t, demands, placement);
        placed_whole = true;
        break;
      }
    }
    if (placed_whole) {
      ++stats_.groups_placed_whole;
      continue;
    }

    // Split path: place container-by-container into the left-most feasible
    // rack; relax the bandwidth constraint only as a last resort (counted
    // as a violation — the paper grows the active set by a pod instead).
    ++stats_.groups_split;
    for (const auto c : group) {
      const ContainerId one[] = {c};
      const Resource& d = demands[static_cast<std::size_t>(c.value())];
      bool done = false;
      for (int pass = 0; pass < 2 && !done; ++pass) {
        const bool check_bw = pass == 0;
        for (const auto rack : nodes_at_level_[1]) {
          if (!TryFill(one, demands, d, rack, t)) continue;
          if (check_bw && !BandwidthFeasible(g, t, demands)) continue;
          if (!check_bw) ++stats_.bandwidth_violations;
          Commit(g, t, demands, placement);
          done = true;
          break;
        }
      }
      // A container that fits nowhere even capacity-wise stays unplaced.
    }
  }
  static obs::Counter& whole = obs::MetricsRegistry::Global().GetCounter(
      "vc.groups_placed_whole", obs::MetricKind::kDeterministic);
  static obs::Counter& split = obs::MetricsRegistry::Global().GetCounter(
      "vc.groups_split", obs::MetricKind::kDeterministic);
  static obs::Counter& bw = obs::MetricsRegistry::Global().GetCounter(
      "vc.bandwidth_violations", obs::MetricKind::kDeterministic);
  static obs::Counter& bound = obs::MetricsRegistry::Global().GetCounter(
      "vc.subtree_bound_rejections", obs::MetricKind::kDeterministic);
  whole.Add(static_cast<std::uint64_t>(stats_.groups_placed_whole));
  split.Add(static_cast<std::uint64_t>(stats_.groups_split));
  bw.Add(static_cast<std::uint64_t>(stats_.bandwidth_violations));
  bound.Add(static_cast<std::uint64_t>(stats_.subtree_bound_rejections));
  return placement;
}

double VirtualClusterPlacer::ReservationOn(NodeId node) const {
  return ReservationWith(node, -1, 0.0, 0.0);
}

}  // namespace gl
