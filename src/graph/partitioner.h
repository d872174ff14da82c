// Multilevel balanced min-cut graph partitioning.
//
// This is the from-scratch replacement for METIS [23] used by the paper: the
// same multilevel scheme (heavy-edge-matching coarsening → greedy-graph-
// growing initial partition → Fiduccia–Mattheyses refinement during
// uncoarsening) with a balance constraint on scalar vertex weights.
//
// Two entry points:
//   * Bisect            — one balanced 2-way split (the paper's building
//                         block, Fig. 6).
//   * RecursivePartition— the paper's Sec. III-B loop: keep bisecting until
//                         every group's aggregate Resource demand satisfies a
//                         caller-provided fit predicate (e.g. "fits in one
//                         server at 70% utilization"). n comes out of the
//                         algorithm, not in.
//
// Negative edge weights (replica anti-affinity, Sec. IV-C) are supported:
// they are never contracted during coarsening and the min-cut objective
// actively prefers to separate their endpoints.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"

namespace gl {

// Coarsening stops when the graph has at most this many vertices.
inline constexpr VertexIndex kCoarsenTarget = 96;
// Below this vertex count a level is refined single-stream and coarsened
// without the pool: tiny levels are cheaper serial than synchronized.
// Part of the deterministic contract (the gate reads the problem size,
// never the thread count), so changing it changes partitions.
inline constexpr VertexIndex kParallelMinVertices = 4096;

struct PartitionOptions {
  // Allowed imbalance: a side may carry up to (1 + balance_tolerance) times
  // its proportional share of the total balance weight (METIS' ubfactor).
  double balance_tolerance = 0.10;
  // Upper bound on the greedy-graph-growing attempts on the coarsest graph.
  // The attempts stop early once no later one could replace the best (a
  // feasible zero cut; DESIGN.md §11 lists the conditions), which never
  // changes the result.
  int initial_trials = 8;
  // Maximum FM passes per level (each pass ends early when it stalls).
  int refine_passes = 8;
  // Consecutive non-improving FM moves tolerated before ending a pass.
  int fm_stall_limit = 256;
  // Independent FM trials per uncoarsening level on graphs of at least
  // kParallelMinVertices vertices (1 = classic single-stream FM). The
  // trials split the refine_passes budget, run from keyed per-trial
  // sub-streams, and fold to one canonical winner (graph/refine.h), so the
  // result is a pure function of the options — identical whether the trials
  // ran concurrently or back-to-back.
  int fm_trials = 4;
  std::uint64_t seed = 0x5eed;
  // Threads for RecursivePartition (1 = serial): each split's bisection and
  // its two child subtrees run on one nested pool of this width. Results
  // are bit-identical for every value: sub-partitions are seeded from the
  // recursion path and merged in recursion-path (preorder) order.
  int threads = 1;
};

struct Bisection {
  std::vector<std::uint8_t> side;  // per-vertex: 0 or 1
  double cut_weight = 0.0;
  double side_weight[2] = {0.0, 0.0};  // balance weight per side
  bool balanced = false;               // within tolerance of the target
};

// Balanced 2-way partition. `target_fraction` is the share of the total
// balance weight that side 0 should receive (0.5 for an even split; other
// values carve whole server-units off a group, see CapacityUnitsFn).
Bisection Bisect(const CsrGraph& g, const PartitionOptions& opts,
                 double target_fraction = 0.5);
// Adapter: the same bisection of g's CSR snapshot (CsrGraph::BuildFrom).
Bisection Bisect(const Graph& g, const PartitionOptions& opts,
                 double target_fraction = 0.5);

// Predicate deciding whether a container group with the given aggregate
// demand and cardinality can stop splitting (equation (2) of the paper).
using FitPredicate = std::function<bool(const Resource& demand, int count)>;

struct RecursivePartitionResult {
  std::vector<int> group_of;  // per-vertex group id in [0, num_groups)
  int num_groups = 0;
  // Binary recursion-tree path per group ('0' = left, '1' = right). Groups
  // sharing a longer common prefix were split from each other later, so they
  // communicate more; placing them adjacently preserves locality (the paper
  // puts sibling groups in the same rack).
  std::vector<std::string> group_path;
  std::vector<Resource> group_demand;
  std::vector<int> group_size;
  // Groups of a single vertex that still fail the fit predicate (container
  // larger than any server); the caller must reject or special-case these.
  std::vector<int> oversized_groups;
  double cut_weight = 0.0;
};

// Optional sizing hint: how many server-capacity units a group's aggregate
// demand is worth (max over dimensions of demand/ceiling). When provided,
// an oversized group of U units is split at fraction ⌈U/2⌉/U instead of
// 1/2, so the recursion's leaves land close to 100% of a server's ceiling
// rather than the ~50–70% that plain halving produces.
using CapacityUnitsFn = std::function<double(const Resource& demand)>;

// `demands[v]` is vertex v's Resource demand; `g` carries the rest.
RecursivePartitionResult RecursivePartition(
    const CsrGraph& g, std::span<const Resource> demands,
    const FitPredicate& fits, const PartitionOptions& opts,
    const CapacityUnitsFn& units = nullptr);
// Adapter: RecursivePartition over g's CSR snapshot and demands.
RecursivePartitionResult RecursivePartition(
    const Graph& g, const FitPredicate& fits, const PartitionOptions& opts,
    const CapacityUnitsFn& units = nullptr);

// Groups ordered by recursion path; adjacent entries are locality siblings.
std::vector<int> GroupsInLocalityOrder(const RecursivePartitionResult& r);

}  // namespace gl
