// Flat compressed-sparse-row graph kernel (DESIGN.md §11).
//
// The multilevel partitioner is the placement loop's hot path, and on
// `Graph`'s vector-of-vectors adjacency it is memory-bound: every neighbor
// scan chases a pointer per row and every coarsening level / recursion split
// used to materialize a fresh Graph (per-row heap allocations, per-edge
// merge scans). CsrGraph is the flat replacement: one offsets array, one
// target array, one weight array — neighbor scans are contiguous streams,
// and all storage is reusable, so a warm scratch arena (graph/scratch.h)
// rebuilds levels and subgraph views without touching the allocator.
//
// An "arc" is one direction of an undirected edge; every edge appears in
// both endpoint rows. BuildFrom(Graph) preserves the Graph's per-vertex
// neighbor order exactly, so iteration-order-sensitive tie-breaking behaves
// identically on either representation (verified by tests/csr_test.cc).
//
// CsrGraph carries what refinement needs — topology, arc weights, scalar
// balance weights. Resource demands stay on the originating Graph: the
// recursion sums them per index range only when emitting groups.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"
#include "obs/memory.h"

namespace gl {

class CsrGraph {
 public:
  CsrGraph() = default;

  // Drops the contents but keeps the capacity (arena reuse).
  void Clear() {
    row_.clear();
    col_.clear();
    w_.clear();
    balance_.clear();
    deg_.clear();
    total_balance_ = 0.0;
  }

  // Streaming build: BeginBuild, then one BeginRow per vertex in index
  // order with its PushArc calls, then EndBuild. The expected sizes are
  // reservation hints, not limits.
  void BeginBuild(VertexIndex expected_vertices, std::size_t expected_arcs) {
    Clear();
    const auto nv = static_cast<std::size_t>(
        expected_vertices > 0 ? expected_vertices : 0);
    row_.reserve(nv + 1);
    balance_.reserve(nv);
    col_.reserve(expected_arcs);
    w_.reserve(expected_arcs);
    row_.push_back(0);
  }

  VertexIndex BeginRow(double balance_weight) {
    if (!balance_.empty()) row_.push_back(col_.size());  // close previous row
    balance_.push_back(balance_weight);
    GOLDILOCKS_CHECK(balance_.size() <=
                     static_cast<std::size_t>(
                         std::numeric_limits<VertexIndex>::max()));
    total_balance_ += balance_weight;
    return static_cast<VertexIndex>(balance_.size()) - 1;
  }

  void PushArc(VertexIndex to, double weight) {
    col_.push_back(to);
    w_.push_back(weight);
  }

  void EndBuild() {
    if (!balance_.empty()) row_.push_back(col_.size());  // close last row
    GOLDILOCKS_CHECK_EQ(row_.size(), balance_.size() + 1);
    // Cache signed degrees once per build: refinement reads degree_weight
    // per vertex per pass, and summing here in row order gives the same
    // value an on-the-fly scan would.
    deg_.assign(balance_.size(), 0.0);
    for (std::size_t v = 0; v < balance_.size(); ++v) {
      double s = 0.0;
      for (std::size_t i = row_[v]; i < row_[v + 1]; ++i) s += w_[i];
      deg_[v] = s;
    }
  }

  // Indexed (random-access) build for parallel writers (graph/coarsen.cc):
  // size every array up front, let concurrent tasks fill disjoint rows, then
  // finalize. The caller supplies exact offsets (row v owns
  // [offset(v), offset(v+1)) of the arc arrays, with offset(n) = num_arcs
  // pre-set here) plus each row's balance weight and signed degree — the
  // degree is summed by the writer in its row's emission order, which is the
  // same order EndBuild's cache scan would visit. Rows are disjoint, so
  // concurrent fills need no synchronization; EndIndexedBuild re-derives the
  // total balance weight serially in row order (one canonical summation
  // order at every thread count, DESIGN.md §9).
  void BeginIndexedBuild(VertexIndex expected_vertices, std::size_t num_arcs) {
    Clear();
    const auto nv = static_cast<std::size_t>(
        expected_vertices > 0 ? expected_vertices : 0);
    GOLDILOCKS_CHECK(nv <= static_cast<std::size_t>(
                               std::numeric_limits<VertexIndex>::max()));
    row_.assign(nv + 1, num_arcs);
    col_.resize(num_arcs);
    w_.resize(num_arcs);
    balance_.assign(nv, 0.0);
    deg_.assign(nv, 0.0);
  }

  void SetRowOffset(VertexIndex v, std::size_t offset) {
    row_[Checked(v)] = offset;
  }

  void SetVertex(VertexIndex v, double balance_weight, double degree_weight) {
    const auto s = Checked(v);
    balance_[s] = balance_weight;
    deg_[s] = degree_weight;
  }

  void SetArc(std::size_t slot, VertexIndex to, double weight) {
    GOLDILOCKS_CHECK_LT(slot, col_.size());
    col_[slot] = to;
    w_[slot] = weight;
  }

  void EndIndexedBuild() {
    total_balance_ = 0.0;
    for (std::size_t v = 0; v < balance_.size(); ++v) {
      GOLDILOCKS_CHECK(row_[v] <= row_[v + 1]);  // offsets must be monotone
      total_balance_ += balance_[v];
    }
  }

  // Snapshot of `g`, preserving its adjacency-list neighbor order.
  void BuildFrom(const Graph& g) {
    BeginBuild(g.num_vertices(), 2 * g.num_edges());
    for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
      BeginRow(g.balance_weight(v));
      for (const auto& e : g.neighbors(v)) PushArc(e.to, e.weight);
    }
    EndBuild();
  }

  // Induced sub-view of `g` over ascending `vertices` (local id = position)
  // in Graph::InducedSubgraph's arc order: a row's lower-id neighbours
  // ascending, then its higher-id ones in row order. `remap` is scratch
  // indexed by g's vertex ids, all -1 (or absent) between calls.
  void BuildInduced(const CsrGraph& g, std::span<const VertexIndex> vertices,
                    std::vector<VertexIndex>& remap) {
    remap.resize(static_cast<std::size_t>(g.num_vertices()), -1);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      GOLDILOCKS_CHECK(i == 0 || vertices[i - 1] < vertices[i]);
      remap[g.Checked(vertices[i])] = static_cast<VertexIndex>(i);
    }
    std::vector<std::pair<VertexIndex, double>> lower;
    BeginBuild(static_cast<VertexIndex>(vertices.size()), 0);
    for (const auto v : vertices) {
      BeginRow(g.balance_weight(v));
      const auto [to, ws] = g.arc_range(v);
      lower.clear();
      for (std::size_t k = 0; k < to.size(); ++k) {
        const auto t = remap[static_cast<std::size_t>(to[k])];
        if (t >= 0 && to[k] < v) lower.emplace_back(t, ws[k]);
      }
      std::sort(lower.begin(), lower.end());  // targets are distinct
      for (const auto& [t, w] : lower) PushArc(t, w);
      for (std::size_t k = 0; k < to.size(); ++k) {
        const auto t = remap[static_cast<std::size_t>(to[k])];
        if (t >= 0 && to[k] > v) PushArc(t, ws[k]);
      }
    }
    EndBuild();
    for (const auto v : vertices) remap[static_cast<std::size_t>(v)] = -1;
  }

  [[nodiscard]] VertexIndex num_vertices() const {
    return static_cast<VertexIndex>(balance_.size());
  }
  [[nodiscard]] std::size_t num_arcs() const { return col_.size(); }

  [[nodiscard]] std::span<const VertexIndex> arcs(VertexIndex v) const {
    const auto s = Checked(v);
    return {col_.data() + row_[s], row_[s + 1] - row_[s]};
  }
  [[nodiscard]] std::span<const double> arc_weights(VertexIndex v) const {
    const auto s = Checked(v);
    return {w_.data() + row_[s], row_[s + 1] - row_[s]};
  }

  // Both row views through a single bounds check, for inner loops that need
  // targets and weights together.
  struct ArcRange {
    std::span<const VertexIndex> to;
    std::span<const double> w;
  };
  [[nodiscard]] ArcRange arc_range(VertexIndex v) const {
    const auto s = Checked(v);
    const auto len = row_[s + 1] - row_[s];
    return {{col_.data() + row_[s], len}, {w_.data() + row_[s], len}};
  }

  [[nodiscard]] double balance_weight(VertexIndex v) const {
    return balance_[Checked(v)];
  }
  [[nodiscard]] double total_balance_weight() const { return total_balance_; }

  // Signed degree (sum of incident arc weights), cached at EndBuild.
  [[nodiscard]] double degree_weight(VertexIndex v) const {
    return deg_[Checked(v)];
  }

  // Cut weight of a labelling (2-way sides or k-way group ids); iterates
  // arcs with to > v so each undirected edge contributes once, in the same
  // order Graph::CutWeight / CutWeightKWay visit it.
  template <typename Labels>
  [[nodiscard]] double CutWeight(const Labels& part) const {
    GOLDILOCKS_CHECK_EQ(part.size(), balance_.size());
    double cut = 0.0;
    for (VertexIndex v = 0; v < num_vertices(); ++v) {
      const auto [to, ws] = arc_range(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        if (to[i] > v && part[static_cast<std::size_t>(v)] !=
                             part[static_cast<std::size_t>(to[i])]) {
          cut += ws[i];
        }
      }
    }
    return cut;
  }

  // Total balance weight on side 0, summed in vertex order.
  [[nodiscard]] double SideWeight0(std::span<const std::uint8_t> side) const {
    GOLDILOCKS_CHECK_EQ(side.size(), balance_.size());
    double w0 = 0.0;
    for (std::size_t v = 0; v < balance_.size(); ++v) {
      if (side[v] == 0) w0 += balance_[v];
    }
    return w0;
  }

  // Storage identity, for arena-reuse tests: the arc array's address only
  // changes when a rebuild outgrows the retained capacity.
  [[nodiscard]] const VertexIndex* arc_data() const { return col_.data(); }

  // Retained footprint in bytes (capacities, not sizes): monotone across
  // Clear()/rebuild reuse. Memory observability only (obs/memory.h) —
  // never a decision input.
  [[nodiscard]] std::size_t ApproxBytes() const {
    return obs::VectorFootprintBytes(row_) + obs::VectorFootprintBytes(col_) +
           obs::VectorFootprintBytes(w_) +
           obs::VectorFootprintBytes(balance_) +
           obs::VectorFootprintBytes(deg_);
  }

 private:
  [[nodiscard]] std::size_t Checked(VertexIndex v) const {
    GOLDILOCKS_CHECK_GE(v, 0);
    GOLDILOCKS_CHECK_LT(v, num_vertices());
    return static_cast<std::size_t>(v);
  }

  std::vector<std::size_t> row_;  // n+1 offsets into col_/w_ once built
  std::vector<VertexIndex> col_;
  std::vector<double> w_;
  std::vector<double> balance_;
  std::vector<double> deg_;  // per-vertex signed degree, filled by EndBuild
  double total_balance_ = 0.0;
};

}  // namespace gl
