// Tests for the flat CSR partitioning kernel (DESIGN.md §11): CsrGraph
// equivalence against Graph, arena storage reuse, the lazy-deletion heap,
// the FM incremental-gain engine, and the zero-copy recursion contract
// (no InducedSubgraph materialization on the partitioning path, in the
// partitioner or in the scheduler's Place()).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/goldilocks.h"
#include "graph/csr.h"
#include "graph/fm.h"
#include "graph/graph.h"
#include "graph/partitioner.h"
#include "graph/scratch.h"
#include "obs/metrics.h"

namespace gl {
namespace {

// Random graph with clusters, sparse inter-cluster edges, and a sprinkle of
// negative (anti-affinity) edges. Integer weights so FM's delta updates are
// exact and the equivalence checks below can use exact comparisons.
Graph RandomGraph(int n, std::uint64_t seed, bool with_negative) {
  Rng rng(seed);
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1},
                1.0 + static_cast<double>(rng.NextBelow(3)));
  }
  for (int s = 0; s + 4 <= n; s += 4) {
    for (int i = 1; i < 4; ++i) {
      g.AddEdge(s, s + i, static_cast<double>(1 + rng.NextBelow(9)));
    }
  }
  for (int e = 0; e < n; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(n));
    if (a == b) continue;
    double w = static_cast<double>(1 + rng.NextBelow(5));
    if (with_negative && rng.NextBelow(4) == 0) w = -w;
    g.AddEdge(a, b, w);
  }
  return g;
}

std::vector<std::uint8_t> RandomSide(VertexIndex n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n));
  for (auto& s : side) s = static_cast<std::uint8_t>(rng.NextBelow(2));
  return side;
}

// --- CsrGraph vs Graph equivalence ----------------------------------------

TEST(CsrGraphTest, BuildFromMatchesGraphExactly) {
  for (const bool with_negative : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Graph g = RandomGraph(64, seed, with_negative);
      CsrGraph csr;
      csr.BuildFrom(g);

      ASSERT_EQ(csr.num_vertices(), g.num_vertices());
      ASSERT_EQ(csr.num_arcs(), 2 * g.num_edges());
      EXPECT_DOUBLE_EQ(csr.total_balance_weight(), g.total_balance_weight());

      for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
        EXPECT_DOUBLE_EQ(csr.balance_weight(v), g.balance_weight(v));
        EXPECT_DOUBLE_EQ(csr.degree_weight(v), g.degree_weight(v));
        // Neighbor order must match the Graph adjacency list exactly:
        // tie-breaking in matching and refinement follows iteration order.
        const auto nbrs = g.neighbors(v);
        const auto [to, ws] = csr.arc_range(v);
        ASSERT_EQ(to.size(), nbrs.size());
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          EXPECT_EQ(to[i], nbrs[i].to);
          EXPECT_DOUBLE_EQ(ws[i], nbrs[i].weight);
        }
      }

      const auto side = RandomSide(g.num_vertices(), seed ^ 0xABCD);
      EXPECT_DOUBLE_EQ(csr.CutWeight(side), g.CutWeight(side));
      double w0 = 0.0;
      for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
        if (side[static_cast<std::size_t>(v)] == 0) w0 += g.balance_weight(v);
      }
      EXPECT_DOUBLE_EQ(csr.SideWeight0(side), w0);
    }
  }
}

TEST(CsrGraphTest, ArenaReuseKeepsStorageAndResults) {
  const Graph g = RandomGraph(128, 7, true);
  CsrGraph csr;
  csr.BuildFrom(g);
  const auto side = RandomSide(g.num_vertices(), 99);
  const double first_cut = csr.CutWeight(side);
  const VertexIndex* storage = csr.arc_data();

  // Clear + rebuild of an equal-or-smaller graph must reuse the arc array
  // (no allocation) and reproduce bit-identical results.
  for (int round = 0; round < 3; ++round) {
    csr.Clear();
    csr.BuildFrom(g);
    EXPECT_EQ(csr.arc_data(), storage);
    EXPECT_DOUBLE_EQ(csr.CutWeight(side), first_cut);
  }
}

// --- LazyMaxHeap -----------------------------------------------------------

TEST(LazyMaxHeapTest, PopsMaxAndSkipsStaleEntries) {
  LazyMaxHeap heap;
  heap.Reset(4);
  heap.Push(0, 1.0);
  heap.Push(1, 5.0);
  heap.Push(2, 3.0);
  // Re-push vertex 1 with a lower priority: the old 5.0 entry is stale and
  // must be skipped even though it sits on top of the heap.
  heap.Push(1, 2.0);

  VertexIndex v = -1;
  double p = 0.0;
  ASSERT_TRUE(heap.Pop(&v, &p));
  EXPECT_EQ(v, 2);
  EXPECT_DOUBLE_EQ(p, 3.0);
  ASSERT_TRUE(heap.Pop(&v, &p));
  EXPECT_EQ(v, 1);
  EXPECT_DOUBLE_EQ(p, 2.0);
  ASSERT_TRUE(heap.Pop(&v, &p));
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(heap.Pop(&v, &p));  // only stale entries remain
}

TEST(LazyMaxHeapTest, InvalidateRemovesAndResetReuses) {
  LazyMaxHeap heap;
  heap.Reset(3);
  heap.Push(0, 10.0);
  heap.Push(1, 20.0);
  EXPECT_TRUE(heap.Contains(1));
  heap.Invalidate(1);
  EXPECT_FALSE(heap.Contains(1));

  VertexIndex v = -1;
  double p = 0.0;
  ASSERT_TRUE(heap.Pop(&v, &p));
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(heap.Pop(&v, &p));

  heap.Reset(3);  // reused storage must start empty
  EXPECT_FALSE(heap.Pop(&v, &p));
}

// --- FmEngine: incremental gains -------------------------------------------

TEST(FmEngineTest, DeltaGainsMatchFullRecompute) {
  const Graph g = RandomGraph(48, 11, true);
  CsrGraph csr;
  csr.BuildFrom(g);
  auto side = RandomSide(csr.num_vertices(), 3);
  std::vector<double> gain;
  FmEngine engine;
  engine.Attach(csr, &side, &gain);

  Rng rng(17);
  for (int move = 0; move < 64; ++move) {
    const auto v = static_cast<VertexIndex>(
        rng.NextBelow(static_cast<std::size_t>(csr.num_vertices())));
    engine.Flip(v);
    for (VertexIndex u = 0; u < csr.num_vertices(); ++u) {
      // Integer weights: delta maintenance must be exactly the from-scratch
      // value, not just close.
      ASSERT_DOUBLE_EQ(engine.gain(u), engine.RecomputeGain(u))
          << "after move " << move << " vertex " << u;
    }
  }
}

TEST(FmEngineTest, ReverseFlipsRollBackToInitialState) {
  const Graph g = RandomGraph(48, 23, true);
  CsrGraph csr;
  csr.BuildFrom(g);
  auto side = RandomSide(csr.num_vertices(), 5);
  const auto side0 = side;
  std::vector<double> gain;
  FmEngine engine;
  engine.Attach(csr, &side, &gain);
  const std::vector<double> gain0 = gain;

  Rng rng(29);
  std::vector<VertexIndex> moves;
  for (int i = 0; i < 40; ++i) {
    moves.push_back(static_cast<VertexIndex>(
        rng.NextBelow(static_cast<std::size_t>(csr.num_vertices()))));
    engine.Flip(moves.back());
  }
  // Reverse-order flips must restore sides and (with integer weights) every
  // gain exactly — this is what makes FM's rollback-to-best-prefix free of
  // an O(arcs) recompute.
  for (std::size_t i = moves.size(); i > 0; --i) engine.Flip(moves[i - 1]);

  EXPECT_EQ(side, side0);
  for (VertexIndex v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(gain[static_cast<std::size_t>(v)],
                     gain0[static_cast<std::size_t>(v)]);
  }
}

TEST(FmEngineTest, InitialCutMatchesCutWeight) {
  for (std::uint64_t seed = 31; seed <= 35; ++seed) {
    const Graph g = RandomGraph(64, seed, true);
    CsrGraph csr;
    csr.BuildFrom(g);
    auto side = RandomSide(csr.num_vertices(), seed);
    std::vector<double> gain;
    FmEngine engine;
    engine.Attach(csr, &side, &gain);
    EXPECT_NEAR(engine.initial_cut(), csr.CutWeight(side), 1e-9);
  }
}

// --- GroupAccumulator -------------------------------------------------------

TEST(GroupAccumulatorTest, SumsPerIdInFirstTouchOrder) {
  GroupAccumulator acc;
  acc.Reset(8);
  acc.Add(5, 1.5);
  acc.Add(2, 1.0);
  acc.Add(5, 0.5);
  acc.Add(7, -2.0);

  ASSERT_EQ(acc.touched().size(), 3u);
  EXPECT_EQ(acc.touched()[0], 5);
  EXPECT_EQ(acc.touched()[1], 2);
  EXPECT_EQ(acc.touched()[2], 7);
  EXPECT_DOUBLE_EQ(acc.Get(5), 2.0);
  EXPECT_DOUBLE_EQ(acc.Get(2), 1.0);
  EXPECT_DOUBLE_EQ(acc.Get(7), -2.0);
  EXPECT_DOUBLE_EQ(acc.Get(0), 0.0);  // untouched reads as zero

  acc.Reset(8);  // O(1) epoch bump must forget everything
  EXPECT_TRUE(acc.touched().empty());
  EXPECT_DOUBLE_EQ(acc.Get(5), 0.0);
}

TEST(GroupAccumulatorTest, EpochWrapNeverResurrectsOldSums) {
  GroupAccumulator acc;
  acc.Reset(4);     // epoch 1
  acc.Add(2, 5.0);  // stamp[2] = 1
  acc.Add(0, 3.0);

  // Drive the counter to its max; the next Reset wraps to 0 and must clear
  // every stamp — otherwise the post-wrap epoch value 1 would alias the
  // stamps written in the original epoch 1 and Get(2) would read 5.0.
  acc.set_epoch_for_test(0xFFFFFFFFu);
  acc.Reset(4);
  EXPECT_TRUE(acc.touched().empty());
  EXPECT_DOUBLE_EQ(acc.Get(2), 0.0);
  EXPECT_DOUBLE_EQ(acc.Get(0), 0.0);

  // The accumulator keeps working normally after the wrap.
  acc.Add(2, 1.0);
  acc.Add(2, 0.5);
  EXPECT_DOUBLE_EQ(acc.Get(2), 1.5);
  ASSERT_EQ(acc.touched().size(), 1u);
  EXPECT_EQ(acc.touched()[0], 2);

  // And the epoch after the wrap still invalidates cleanly.
  acc.Reset(4);
  EXPECT_DOUBLE_EQ(acc.Get(2), 0.0);
}

// --- Zero-copy recursion contract -------------------------------------------

TEST(CsrRecursionTest, RecursivePartitionBuildsNoInducedSubgraphs) {
  auto& builds = obs::MetricsRegistry::Global().GetCounter(
      "graph.induced_subgraph_builds", obs::MetricKind::kDeterministic);
  auto& views = obs::MetricsRegistry::Global().GetCounter(
      "partition.subgraph_views", obs::MetricKind::kDeterministic);

  const Graph g = RandomGraph(400, 41, true);
  const Resource ceiling{.cpu = 100, .mem_gb = 10, .net_mbps = 10};
  const auto builds_before = builds.value();
  const auto views_before = views.value();
  const auto r = RecursivePartition(
      g, [&](const Resource& d, int) { return d.FitsIn(ceiling); }, {});
  EXPECT_GT(r.num_groups, 1);

  // The recursion must run entirely on zero-copy CSR views: many views
  // extracted, zero Graph copies materialized.
  EXPECT_EQ(builds.value() - builds_before, 0u);
  EXPECT_GT(views.value() - views_before, 0u);
}

// The same contract for the scheduler: Place() partitions, repairs and
// refines on CSR views of the workload graph, never on Graph copies.
TEST(CsrRecursionTest, GoldilocksPlaceBuildsNoInducedSubgraphs) {
  auto& builds = obs::MetricsRegistry::Global().GetCounter(
      "graph.induced_subgraph_builds", obs::MetricKind::kDeterministic);
  auto& refines = obs::MetricsRegistry::Global().GetCounter(
      "goldilocks.refine_bisections", obs::MetricKind::kDeterministic);
  const Resource cap{.cpu = 3200, .mem_gb = 64, .net_mbps = 1000};
  const Topology topo = Topology::LeafSpine(8, 2, 2, cap, 1000.0);
  // 16 flowless containers: together they pass the partition's relaxed
  // NIC check, but their full NIC demand overflows one server, so the
  // fresh partition's group is refined by bisection.
  Workload w;
  for (int i = 0; i < 16; ++i) {
    Container c;
    c.id = ContainerId{i};
    w.containers.push_back(c);
  }
  std::vector<Resource> demands(16, {.cpu = 100, .mem_gb = 1, .net_mbps = 300});
  const std::vector<std::uint8_t> active(16, 1);
  GoldilocksOptions opts;
  opts.incremental_repartition = true;
  GoldilocksScheduler sched(opts);
  SchedulerInput input;
  input.workload = &w;
  input.demands = demands;
  input.active = active;
  input.topology = &topo;

  const auto builds_before = builds.value();
  const auto refines_before = refines.value();
  (void)sched.Place(input);  // fresh partition + refine bisections
  const auto refines_fresh = refines.value();
  EXPECT_GT(refines_fresh - refines_before, 0u);
  const int fresh_groups = sched.last_num_groups();

  // CPU growth past the relaxed fit: the repair finds every group
  // infeasible with no neighbour group to shed into, so it carves each
  // one by bisection. No refinement is needed afterwards (NIC is low).
  for (auto& d : demands) d = {.cpu = 1100, .mem_gb = 1, .net_mbps = 10};
  (void)sched.Place(input);
  EXPECT_EQ(refines.value(), refines_fresh);
  EXPECT_GT(sched.last_num_groups(), fresh_groups);

  EXPECT_EQ(builds.value() - builds_before, 0u);
}

}  // namespace
}  // namespace gl
