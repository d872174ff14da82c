#include "core/graph_builder.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {

WorkloadGraph::WorkloadGraph(const Workload& workload,
                             const ContainerGraphOptions& opts)
    : source_(&workload), num_edges_(workload.edges.size()) {
  const std::size_t n = workload.containers.size();
  obs::TraceSpan span("graph.workload_build", static_cast<std::int64_t>(n));
  // Replica members stably sorted by set id: a clique must not follow
  // hash-bucket order, and within a set members keep container order.
  std::vector<std::pair<GroupId, std::int32_t>> members;
  for (const auto& c : workload.containers) {
    order_.push_back(c.id.value());
    if (c.replica_set.valid()) members.emplace_back(c.replica_set, c.id.value());
  }
  std::stable_sort(members.begin(), members.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::size_t> set_of(n, 0);  // set index + 1; 0 = none
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i == 0 || members[i].first != members[i - 1].first) {
      replica_sets_.push_back(i);
    }
    replica_members_.push_back(members[i].second);
    set_of[static_cast<std::size_t>(members[i].second)] = replica_sets_.size();
  }
  replica_sets_.push_back(members.size());

  const auto idx = [](ContainerId c) {
    return static_cast<std::size_t>(c.value());
  };
  edge_row_.assign(n + 1, 0);
  flow_total_.assign(n, 0.0);
  for (const auto& e : workload.edges) {
    if (e.a == e.b) continue;
    ++edge_row_[idx(e.a) + 1];
    ++edge_row_[idx(e.b) + 1];
  }
  for (std::size_t c = 0; c < n; ++c) edge_row_[c + 1] += edge_row_[c];
  edge_peer_.resize(edge_row_[n]);
  edge_w_.resize(edge_row_[n]);
  std::vector<std::size_t> at(edge_row_.begin(), edge_row_.end() - 1);
  for (const auto& e : workload.edges) {
    if (e.flows > 0.0) {
      flow_total_[idx(e.a)] += e.flows;
      flow_total_[idx(e.b)] += e.flows;
    }
    if (e.a == e.b) continue;
    edge_peer_[at[idx(e.a)]] = e.b.value();
    edge_w_[at[idx(e.a)]++] = e.flows;
    edge_peer_[at[idx(e.b)]] = e.a.value();
    edge_w_[at[idx(e.b)]++] = e.flows;
  }

  // Merge each row as Graph::AddEdge does: a neighbour's first edge fixes
  // its arc's position, later ones add to its weight in edge order; the
  // replica clique follows in member order. slot[t] is t's arc position
  // when it is in the current row.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> slot(n, kNone);
  row_.assign(1, 0);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t start = col_.size();
    const auto merge = [&](std::int32_t t, double w) {
      std::size_t& s = slot[static_cast<std::size_t>(t)];
      if (s != kNone && s >= start) {
        w_[s] += w;
      } else {
        s = col_.size();
        col_.push_back(t);
        w_.push_back(w);
      }
    };
    for (std::size_t k = edge_row_[c]; k < edge_row_[c + 1]; ++k) {
      merge(edge_peer_[k], edge_w_[k]);
    }
    if (set_of[c] > 0) {
      for (std::size_t i = replica_sets_[set_of[c] - 1];
           i < replica_sets_[set_of[c]]; ++i) {
        const std::int32_t t = replica_members_[i];
        if (static_cast<std::size_t>(t) != c) {
          merge(t, opts.replica_anti_affinity);
        }
      }
    }
    row_.push_back(col_.size());
  }
}

void WorkloadGraph::Compact(std::span<const Resource> demands,
                            std::span<const std::uint8_t> active,
                            const Resource& reference_capacity,
                            EpochGraph& out) const {
  const std::size_t n = order_.size();
  GOLDILOCKS_CHECK(demands.size() == n);
  GOLDILOCKS_CHECK(active.size() == n);
  GOLDILOCKS_CHECK(n <= static_cast<std::size_t>(
                           std::numeric_limits<VertexIndex>::max()));
  obs::TraceSpan span("graph.build", static_cast<std::int64_t>(n));
  out.container_to_vertex.assign(n, -1);
  out.vertex_to_container.clear();
  out.demands.clear();
  VertexIndex nv = 0;
  for (const auto id : order_) {
    const auto i = static_cast<std::size_t>(id);
    if (!active[i]) continue;
    out.container_to_vertex[i] = nv++;
    out.vertex_to_container.emplace_back(id);
    out.demands.push_back(demands[i]);
  }
  out.graph.BeginBuild(nv, row_[n]);
  for (VertexIndex v = 0; v < nv; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    const auto c =
        static_cast<std::size_t>(out.vertex_to_container[sv].value());
    out.graph.BeginRow(out.demands[sv].NormalizedL1(reference_capacity));
    for (std::size_t k = row_[c]; k < row_[c + 1]; ++k) {
      const VertexIndex t =
          out.container_to_vertex[static_cast<std::size_t>(col_[k])];
      if (t >= 0) out.graph.PushArc(t, w_[k]);
    }
  }
  out.graph.EndBuild();

  // One anti-affinity edge per pair of active members of a replica set.
  std::uint64_t anti_affinity_edges = 0;
  for (std::size_t s = 0; s + 1 < replica_sets_.size(); ++s) {
    std::uint64_t k = 0;
    for (std::size_t i = replica_sets_[s]; i < replica_sets_[s + 1]; ++i) {
      k += active[static_cast<std::size_t>(replica_members_[i])];
    }
    if (k > 1) anti_affinity_edges += k * (k - 1) / 2;
  }
  static obs::Counter& vertices = obs::MetricsRegistry::Global().GetCounter(
      "graph.vertices_built", obs::MetricKind::kDeterministic);
  static obs::Counter& edges = obs::MetricsRegistry::Global().GetCounter(
      "graph.anti_affinity_edges", obs::MetricKind::kDeterministic);
  vertices.Add(static_cast<std::uint64_t>(nv));
  edges.Add(anti_affinity_edges);
}

namespace {

// One member's term of a colocated group's demand; EffectiveDemand and
// ColocatedDemand both add with it.
void AddColocated(Resource& out, const Resource& d,
                  double fraction GL_UNITS(dimensionless)) {
  out.cpu += d.cpu;
  out.mem_gb += d.mem_gb;
  out.net_mbps += d.net_mbps * fraction;
}

}  // namespace

double WorkloadGraph::ExternalFraction(std::size_t ci,
                                       const MembershipStamp& stamp) const {
  const double total GL_UNITS(count) = flow_total_[ci];
  // Full network demand (d · 1 == d exactly) without modelled flows.
  if (total <= 0.0) return 1.0;
  // Positive flows to non-members, in edge order (a self-loop's peer is
  // always a member, so leaving loops out changes no sum).
  double external GL_UNITS(count) = 0.0;
  for (std::size_t k = edge_row_[ci]; k < edge_row_[ci + 1]; ++k) {
    if (edge_w_[k] > 0.0 && !stamp.Contains(edge_peer_[k])) {
      external += edge_w_[k];
    }
  }
  return external / total;
}

Resource WorkloadGraph::EffectiveDemand(std::span<const ContainerId> members,
                                        std::span<const Resource> demands,
                                        MembershipStamp& stamp) const {
  stamp.Begin(members);
  Resource out;
  for (const auto c : members) {
    const auto ci = static_cast<std::size_t>(c.value());
    AddColocated(out, demands[ci], ExternalFraction(ci, stamp));
  }
  return out;
}

void WorkloadGraph::ExternalFractions(
    const std::vector<std::vector<ContainerId>>& groups,
    MembershipStamp& stamp, std::vector<double>& fraction) const {
  fraction.assign(order_.size(), 0.0);
  for (const auto& group : groups) {
    stamp.Begin(group);
    for (const auto c : group) {
      const auto ci = static_cast<std::size_t>(c.value());
      fraction[ci] = ExternalFraction(ci, stamp);
    }
  }
}

Resource ColocatedDemand(std::span<const ContainerId> members,
                         std::span<const Resource> demands,
                         std::span<const double> fraction) {
  Resource out;
  for (const auto c : members) {
    const auto ci = static_cast<std::size_t>(c.value());
    AddColocated(out, demands[ci], fraction[ci]);
  }
  return out;
}

ContainerGraph BuildContainerGraph(const Workload& workload,
                                   std::span<const Resource> demands,
                                   std::span<const std::uint8_t> active,
                                   const Resource& reference_capacity,
                                   const ContainerGraphOptions& opts) {
  EpochGraph epoch;
  WorkloadGraph(workload, opts)
      .Compact(demands, active, reference_capacity, epoch);
  ContainerGraph cg;
  const VertexIndex nv = epoch.graph.num_vertices();
  cg.graph.Reserve(nv);
  for (VertexIndex v = 0; v < nv; ++v) {
    cg.graph.AddVertex(epoch.demands[static_cast<std::size_t>(v)],
                       epoch.graph.balance_weight(v));
  }
  for (VertexIndex v = 0; v < nv; ++v) {
    cg.graph.InstallRow(v, epoch.graph.arcs(v), epoch.graph.arc_weights(v));
  }
  cg.vertex_to_container = std::move(epoch.vertex_to_container);
  cg.container_to_vertex = std::move(epoch.container_to_vertex);
  return cg;
}

Graph BuildCapacityGraph(const Topology& topo) {
  Graph g;
  for (int s = 0; s < topo.num_servers(); ++s) {
    const auto& cap = topo.server_capacity(ServerId{s});
    g.AddVertex(cap, 1.0);
  }
  for (int a = 0; a < topo.num_servers(); ++a) {
    for (int b = a + 1; b < topo.num_servers(); ++b) {
      g.AddEdge(a, b,
                static_cast<double>(topo.HopDistance(ServerId{a},
                                                     ServerId{b})));
    }
  }
  return g;
}

}  // namespace gl
