#include "graph/graph.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"

namespace gl {

void Graph::Reserve(VertexIndex expected_vertices) {
  const auto n = static_cast<std::size_t>(
      expected_vertices > 0 ? expected_vertices : 0);
  demands_.reserve(n);
  balance_.reserve(n);
  adj_.reserve(n);
}

VertexIndex Graph::AddVertex(const Resource& demand,
                             double balance_weight GL_UNITS(dimensionless)) {
  demands_.push_back(demand);
  balance_.push_back(balance_weight);
  adj_.emplace_back();
  GOLDILOCKS_CHECK(demands_.size() <=
                   static_cast<std::size_t>(
                       std::numeric_limits<VertexIndex>::max()));
  total_demand_ += demand;
  total_balance_ += balance_weight;
  return num_vertices() - 1;
}

void Graph::AddEdge(VertexIndex u, VertexIndex v, double weight) {
  if (u == v) return;
  const auto su = Checked(u);
  const auto sv = Checked(v);
  // Merge with an existing parallel edge if present.
  for (auto& e : adj_[su]) {
    if (e.to == v) {
      e.weight += weight;
      for (auto& r : adj_[sv]) {
        if (r.to == u) {
          r.weight += weight;
          break;
        }
      }
      return;
    }
  }
  adj_[su].push_back({v, weight});
  adj_[sv].push_back({u, weight});
  ++num_edges_;
}

void Graph::InstallRow(VertexIndex v, std::span<const VertexIndex> to,
                       std::span<const double> weights) {
  GOLDILOCKS_CHECK_EQ(to.size(), weights.size());
  auto& row = adj_[Checked(v)];
  GOLDILOCKS_CHECK(row.empty());
  row.reserve(to.size());
  for (std::size_t i = 0; i < to.size(); ++i) {
    (void)Checked(to[i]);
    row.push_back({to[i], weights[i]});
    if (to[i] > v) ++num_edges_;
  }
}

double Graph::degree_weight(VertexIndex v) const {
  double s = 0.0;
  for (const auto& e : adj_[Checked(v)]) s += e.weight;
  return s;
}

double Graph::total_positive_edge_weight() const {
  double s = 0.0;
  for (VertexIndex v = 0; v < num_vertices(); ++v) {
    for (const auto& e : adj_[static_cast<std::size_t>(v)]) {
      if (e.to > v && e.weight > 0.0) s += e.weight;
    }
  }
  return s;
}

double Graph::CutWeight(std::span<const std::uint8_t> side) const {
  GOLDILOCKS_CHECK(side.size() == static_cast<std::size_t>(num_vertices()));
  double cut = 0.0;
  for (VertexIndex v = 0; v < num_vertices(); ++v) {
    for (const auto& e : adj_[static_cast<std::size_t>(v)]) {
      if (e.to > v && side[static_cast<std::size_t>(v)] !=
                          side[static_cast<std::size_t>(e.to)]) {
        cut += e.weight;
      }
    }
  }
  return cut;
}

double Graph::CutWeightKWay(std::span<const int> group) const {
  GOLDILOCKS_CHECK(group.size() == static_cast<std::size_t>(num_vertices()));
  double cut = 0.0;
  for (VertexIndex v = 0; v < num_vertices(); ++v) {
    for (const auto& e : adj_[static_cast<std::size_t>(v)]) {
      if (e.to > v && group[static_cast<std::size_t>(v)] !=
                          group[static_cast<std::size_t>(e.to)]) {
        cut += e.weight;
      }
    }
  }
  return cut;
}

Graph Graph::InducedSubgraph(std::span<const VertexIndex> vertices,
                             std::vector<VertexIndex>* old_to_new) const {
  // The partitioner's recursion works on zero-copy CSR views and must never
  // land here; the scratch-arena test pins this counter at zero across
  // RecursivePartition (DESIGN.md §11).
  static obs::Counter& builds = obs::MetricsRegistry::Global().GetCounter(
      "graph.induced_subgraph_builds", obs::MetricKind::kDeterministic);
  builds.Increment();
  std::vector<VertexIndex> map(static_cast<std::size_t>(num_vertices()), -1);
  Graph sub;
  GOLDILOCKS_CHECK(vertices.size() <=
                   static_cast<std::size_t>(
                       std::numeric_limits<VertexIndex>::max()));
  sub.Reserve(static_cast<VertexIndex>(vertices.size()));
  for (const auto v : vertices) {
    map[Checked(v)] = sub.AddVertex(demand(v), balance_weight(v));
  }
  for (const auto v : vertices) {
    for (const auto& e : adj_[Checked(v)]) {
      const auto nu = map[static_cast<std::size_t>(v)];
      const auto nv = map[static_cast<std::size_t>(e.to)];
      if (nv >= 0 && e.to > v) sub.AddEdge(nu, nv, e.weight);
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return sub;
}

std::pair<std::vector<int>, int> Graph::ConnectedComponents() const {
  std::vector<int> comp(static_cast<std::size_t>(num_vertices()), -1);
  int num = 0;
  std::vector<VertexIndex> stack;
  for (VertexIndex s = 0; s < num_vertices(); ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    stack.push_back(s);
    comp[static_cast<std::size_t>(s)] = num;
    while (!stack.empty()) {
      const auto v = stack.back();
      stack.pop_back();
      for (const auto& e : adj_[static_cast<std::size_t>(v)]) {
        if (e.weight > 0.0 && comp[static_cast<std::size_t>(e.to)] < 0) {
          comp[static_cast<std::size_t>(e.to)] = num;
          stack.push_back(e.to);
        }
      }
    }
    ++num;
  }
  return {std::move(comp), num};
}

}  // namespace gl
