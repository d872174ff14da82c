// Weighted undirected graph used for both the container graph and the
// capacity graph of Sec. III-A.
//
// Vertices carry a Resource demand vector (the multi-dimensional weight from
// the paper) plus a scalar balance weight used by the partitioner's balance
// constraint. Edges carry a double weight: flow counts for the container
// graph, path lengths for the capacity graph. Edge weights may be *negative*
// to express replica anti-affinity (Sec. IV-C): min-cut then prefers to
// separate the endpoints.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/resource.h"

namespace gl {

using VertexIndex = std::int32_t;

struct GraphEdge {
  VertexIndex to = -1;
  double weight = 0.0;
};

class Graph {
 public:
  Graph() = default;

  // Adds a vertex and returns its index. `balance_weight` defaults to 1
  // (uniform vertices); callers with multi-resource demands should pass a
  // normalized scalar (see NormalizedL1).
  VertexIndex AddVertex(const Resource& demand,
                        double balance_weight GL_UNITS(dimensionless) = 1.0);

  // Adds an undirected edge u–v with the given weight. Parallel edges are
  // merged (weights summed). Self-loops are ignored.
  void AddEdge(VertexIndex u, VertexIndex v, double weight);

  // Installs v's whole adjacency row, for builders that merge parallel
  // edges themselves (core/graph_builder.h). The caller installs both
  // directions of every edge, once each, with no self-loops.
  void InstallRow(VertexIndex v, std::span<const VertexIndex> to,
                  std::span<const double> weights);

  // Pre-sizes the per-vertex arrays for `expected_vertices` AddVertex calls
  // (the adjacency rows still grow per edge).
  void Reserve(VertexIndex expected_vertices);

  [[nodiscard]] VertexIndex num_vertices() const {
    return static_cast<VertexIndex>(demands_.size());
  }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  [[nodiscard]] const Resource& demand(VertexIndex v) const {
    return demands_[Checked(v)];
  }
  [[nodiscard]] std::span<const Resource> demands() const { return demands_; }
  [[nodiscard]] double balance_weight(VertexIndex v) const {
    return balance_[Checked(v)];
  }
  [[nodiscard]] std::span<const GraphEdge> neighbors(VertexIndex v) const {
    const auto& a = adj_[Checked(v)];
    return {a.data(), a.size()};
  }
  [[nodiscard]] double degree_weight(VertexIndex v) const;

  [[nodiscard]] Resource total_demand() const { return total_demand_; }
  [[nodiscard]] double total_balance_weight() const { return total_balance_; }

  // Sum of positive edge weights; the min-cut objective upper bound.
  [[nodiscard]] double total_positive_edge_weight() const;

  // Cut weight of a 2-way assignment (side[v] in {0,1}).
  [[nodiscard]] double CutWeight(std::span<const std::uint8_t> side) const;

  // Cut weight of a k-way assignment (sum of weights of edges whose
  // endpoints are in different groups).
  [[nodiscard]] double CutWeightKWay(std::span<const int> group) const;

  // Induced subgraph over `vertices`; `old_to_new` (optional out) maps
  // original index → new index or -1.
  [[nodiscard]] Graph InducedSubgraph(
      std::span<const VertexIndex> vertices,
      std::vector<VertexIndex>* old_to_new = nullptr) const;

  // Connected components ignoring negative edges; returns per-vertex
  // component id and the component count.
  [[nodiscard]] std::pair<std::vector<int>, int> ConnectedComponents() const;

 private:
  [[nodiscard]] std::size_t Checked(VertexIndex v) const {
    GOLDILOCKS_CHECK_GE(v, 0);
    GOLDILOCKS_CHECK_LT(v, num_vertices());
    return static_cast<std::size_t>(v);
  }

  std::vector<Resource> demands_;
  std::vector<double> balance_;
  std::vector<std::vector<GraphEdge>> adj_;
  Resource total_demand_;
  double total_balance_ GL_UNITS(dimensionless) = 0.0;
  std::size_t num_edges_ = 0;
};

}  // namespace gl
