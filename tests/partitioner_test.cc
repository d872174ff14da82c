#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "graph/partitioner.h"
#include "graph/refine.h"
#include "obs/metrics.h"
#include "workload/msr_trace.h"

namespace gl {
namespace {

// Two dense cliques joined by one weak edge — the canonical min-cut case.
Graph TwoCliques(int clique_size, double intra_w = 10.0,
                 double bridge_w = 1.0) {
  Graph g;
  for (int i = 0; i < 2 * clique_size; ++i) {
    g.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int c = 0; c < 2; ++c) {
    const int base = c * clique_size;
    for (int i = 0; i < clique_size; ++i) {
      for (int j = i + 1; j < clique_size; ++j) {
        g.AddEdge(base + i, base + j, intra_w);
      }
    }
  }
  g.AddEdge(0, clique_size, bridge_w);
  return g;
}

// Ring of `n` vertices with unit weights.
Graph Ring(int n) {
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int i = 0; i < n; ++i) g.AddEdge(i, (i + 1) % n, 1.0);
  return g;
}

Graph RandomGraph(int n, double degree, std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddVertex(Resource{.cpu = rng.Uniform(1, 20), .mem_gb = 1,
                         .net_mbps = 1},
                rng.Uniform(0.5, 2.0));
  }
  const int edges = static_cast<int>(n * degree / 2);
  for (int e = 0; e < edges; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(n));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(n));
    if (a != b) g.AddEdge(a, b, rng.Uniform(0.5, 5.0));
  }
  return g;
}

[[maybe_unused]] double BalanceRatio(const Bisection& b, const Graph& g) {
  const double total = g.total_balance_weight();
  return std::max(b.side_weight[0], b.side_weight[1]) / (total / 2.0);
}

// --- Bisect --------------------------------------------------------------------

TEST(Bisect, FindsTheObviousCut) {
  const Graph g = TwoCliques(8);
  const auto b = Bisect(g, {});
  EXPECT_DOUBLE_EQ(b.cut_weight, 1.0);  // only the bridge crosses
  EXPECT_TRUE(b.balanced);
  // Each clique must be wholly on one side.
  for (int i = 1; i < 8; ++i) EXPECT_EQ(b.side[i], b.side[0]);
  for (int i = 9; i < 16; ++i) EXPECT_EQ(b.side[i], b.side[8]);
  EXPECT_NE(b.side[0], b.side[8]);
}

TEST(Bisect, RingCutsExactlyTwoEdges) {
  const Graph g = Ring(32);
  const auto b = Bisect(g, {});
  EXPECT_DOUBLE_EQ(b.cut_weight, 2.0);
  EXPECT_TRUE(b.balanced);
}

TEST(Bisect, SingleVertex) {
  Graph g;
  g.AddVertex({}, 1.0);
  const auto b = Bisect(g, {});
  EXPECT_EQ(b.side.size(), 1u);
  EXPECT_DOUBLE_EQ(b.cut_weight, 0.0);
}

TEST(Bisect, EmptyGraph) {
  Graph g;
  const auto b = Bisect(g, {});
  EXPECT_TRUE(b.side.empty());
  EXPECT_TRUE(b.balanced);
}

TEST(Bisect, TwoVertices) {
  Graph g;
  g.AddVertex({}, 1.0);
  g.AddVertex({}, 1.0);
  g.AddEdge(0, 1, 3.0);
  const auto b = Bisect(g, {});
  EXPECT_NE(b.side[0], b.side[1]);
  EXPECT_DOUBLE_EQ(b.cut_weight, 3.0);
}

TEST(Bisect, CutMatchesReportedWeight) {
  const Graph g = RandomGraph(200, 6.0, 99);
  const auto b = Bisect(g, {});
  EXPECT_NEAR(g.CutWeight(b.side), b.cut_weight, 1e-9);
}

TEST(Bisect, DeterministicGivenSeed) {
  const Graph g = RandomGraph(150, 5.0, 7);
  PartitionOptions opts;
  opts.seed = 42;
  const auto b1 = Bisect(g, opts);
  const auto b2 = Bisect(g, opts);
  EXPECT_EQ(b1.side, b2.side);
  EXPECT_DOUBLE_EQ(b1.cut_weight, b2.cut_weight);
}

TEST(Bisect, AsymmetricTargetFraction) {
  const Graph g = RandomGraph(300, 4.0, 3);
  PartitionOptions opts;
  opts.balance_tolerance = 0.08;
  const auto b = Bisect(g, opts, 0.25);
  const double total = g.total_balance_weight();
  EXPECT_NEAR(b.side_weight[0] / total, 0.25, 0.08);
}

TEST(Bisect, NegativeEdgeSeparatesReplicas) {
  // Two hub-and-spoke stars whose hubs are replicas (negative edge).
  Graph g;
  for (int i = 0; i < 12; ++i) {
    g.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int i = 1; i < 6; ++i) g.AddEdge(0, i, 5.0);
  for (int i = 7; i < 12; ++i) g.AddEdge(6, i, 5.0);
  g.AddEdge(0, 6, -1000.0);
  const auto b = Bisect(g, {});
  EXPECT_NE(b.side[0], b.side[6]);
}

TEST(Bisect, BetterThanRandomOnStructuredGraph) {
  const Graph g = TwoCliques(20, 8.0, 2.0);
  const auto b = Bisect(g, {});
  // A random balanced cut of two 20-cliques crosses ~half the intra edges;
  // the partitioner must find the 2.0 bridge.
  EXPECT_LE(b.cut_weight, 2.0 + 1e-9);
}

// Parameterized balance sweep: the bisection respects the tolerance across
// graph shapes and sizes.
class BisectBalanceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BisectBalanceTest, WithinTolerance) {
  const auto [n, tol] = GetParam();
  const Graph g = RandomGraph(n, 6.0, static_cast<std::uint64_t>(n) * 31 + 1);
  PartitionOptions opts;
  opts.balance_tolerance = tol;
  const auto b = Bisect(g, opts);
  // Tolerance plus one max-weight vertex of slack (vertices are atomic).
  double max_bw = 0.0;
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    max_bw = std::max(max_bw, g.balance_weight(v));
  }
  const double limit =
      (1.0 + tol) * g.total_balance_weight() / 2.0 + max_bw;
  EXPECT_LE(b.side_weight[0], limit);
  EXPECT_LE(b.side_weight[1], limit);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BisectBalanceTest,
    ::testing::Combine(::testing::Values(50, 200, 1000),
                       ::testing::Values(0.05, 0.10, 0.20)));

// --- Capacity-unit sizing ----------------------------------------------------

// The Fig. 7(b) snapshot: the first 100 vertices of the seeded MSR search
// trace, each one unit of CPU demand with balance weight 1.
Graph MsrUnitSnapshot() {
  constexpr int kSnapshot = 100;
  Rng rng(19);
  MsrTraceOptions opts;
  opts.num_vertices = 1000;
  const auto trace = GenerateMsrSearchTrace(opts, rng);
  Graph g;
  for (int v = 0; v < kSnapshot; ++v) g.AddVertex(Resource{.cpu = 1}, 1.0);
  for (const auto& e : trace.workload.edges) {
    if (e.a.value() < kSnapshot && e.b.value() < kSnapshot) {
      g.AddEdge(e.a.value(), e.b.value(), e.flows);
    }
  }
  return g;
}

// Carves the snapshot into k groups through capacity units: unit demands,
// zero tolerance and a capacity of ceil(100/k).
RecursivePartitionResult CarveIntoK(const Graph& g, int k) {
  PartitionOptions opts;
  opts.balance_tolerance = 0.0;
  const int cap = (g.num_vertices() + k - 1) / k;
  return RecursivePartition(
      g, [&](const Resource& d, int) { return d.cpu <= cap; }, opts,
      [&](const Resource& d) { return d.cpu / cap; });
}

TEST(KWay, ProducesExactlyKGroups) {
  const Graph g = MsrUnitSnapshot();
  for (int k = 2; k <= 8; ++k) {
    SCOPED_TRACE(k);
    const auto r = CarveIntoK(g, k);
    EXPECT_EQ(r.num_groups, k);
    EXPECT_TRUE(r.oversized_groups.empty());
  }
}

TEST(KWay, BalancedAcrossGroups) {
  const Graph g = MsrUnitSnapshot();
  for (int k = 2; k <= 8; ++k) {
    SCOPED_TRACE(k);
    const int cap = (g.num_vertices() + k - 1) / k;
    const auto r = CarveIntoK(g, k);
    for (const int size : r.group_size) EXPECT_LE(size, cap);
  }
}

TEST(KWay, CutMatchesAssignment) {
  // The summed split cuts equal the cut of the final labelling.
  const Graph g = MsrUnitSnapshot();
  for (int k = 2; k <= 8; ++k) {
    SCOPED_TRACE(k);
    const auto r = CarveIntoK(g, k);
    EXPECT_DOUBLE_EQ(r.cut_weight, g.CutWeightKWay(r.group_of));
  }
}

// --- RecursivePartition -----------------------------------------------------------

TEST(RecursivePartition, StopsWhenEverythingFits) {
  const Graph g = Ring(16);
  const auto r = RecursivePartition(
      g, [](const Resource&, int) { return true; }, {});
  EXPECT_EQ(r.num_groups, 1);
  EXPECT_TRUE(r.oversized_groups.empty());
}

TEST(RecursivePartition, SplitsUntilFit) {
  const Graph g = Ring(64);  // total cpu 64
  const auto r = RecursivePartition(
      g, [](const Resource& d, int) { return d.cpu <= 10.0; }, {});
  EXPECT_GE(r.num_groups, 7);  // 64/10 → at least 7 groups
  for (int gi = 0; gi < r.num_groups; ++gi) {
    EXPECT_LE(r.group_demand[static_cast<std::size_t>(gi)].cpu, 10.0 + 1e-9);
  }
  EXPECT_TRUE(r.oversized_groups.empty());
}

TEST(RecursivePartition, EveryVertexAssigned) {
  const Graph g = RandomGraph(300, 5.0, 23);
  const auto r = RecursivePartition(
      g, [](const Resource& d, int) { return d.cpu <= 100.0; }, {});
  for (const int gi : r.group_of) {
    EXPECT_GE(gi, 0);
    EXPECT_LT(gi, r.num_groups);
  }
  // Group sizes sum to the vertex count.
  int total = 0;
  for (const int s : r.group_size) total += s;
  EXPECT_EQ(total, g.num_vertices());
}

TEST(RecursivePartition, GroupDemandsConsistent) {
  const Graph g = RandomGraph(200, 4.0, 29);
  const auto r = RecursivePartition(
      g, [](const Resource& d, int) { return d.cpu <= 150.0; }, {});
  std::vector<Resource> recomputed(static_cast<std::size_t>(r.num_groups));
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    recomputed[static_cast<std::size_t>(
        r.group_of[static_cast<std::size_t>(v)])] += g.demand(v);
  }
  for (int gi = 0; gi < r.num_groups; ++gi) {
    EXPECT_NEAR(recomputed[static_cast<std::size_t>(gi)].cpu,
                r.group_demand[static_cast<std::size_t>(gi)].cpu, 1e-6);
  }
}

TEST(RecursivePartition, OversizedSingletonFlagged) {
  Graph g;
  g.AddVertex(Resource{.cpu = 1000, .mem_gb = 1, .net_mbps = 1}, 1.0);
  g.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  g.AddEdge(0, 1, 1.0);
  const auto r = RecursivePartition(
      g, [](const Resource& d, int) { return d.cpu <= 10.0; }, {});
  EXPECT_EQ(r.oversized_groups.size(), 1u);
}

TEST(RecursivePartition, PathsEncodeHierarchy) {
  const Graph g = Ring(32);
  const auto r = RecursivePartition(
      g, [](const Resource& d, int) { return d.cpu <= 8.0; }, {});
  EXPECT_EQ(static_cast<int>(r.group_path.size()), r.num_groups);
  // Paths must be distinct and none may be a prefix of another (they are
  // leaves of the recursion tree).
  for (int i = 0; i < r.num_groups; ++i) {
    for (int j = i + 1; j < r.num_groups; ++j) {
      const auto& a = r.group_path[static_cast<std::size_t>(i)];
      const auto& b = r.group_path[static_cast<std::size_t>(j)];
      EXPECT_NE(a, b);
      EXPECT_FALSE(a.size() < b.size() && b.compare(0, a.size(), a) == 0);
      EXPECT_FALSE(b.size() < a.size() && a.compare(0, b.size(), b) == 0);
    }
  }
}

TEST(RecursivePartition, LocalityOrderSortsByPath) {
  const Graph g = Ring(32);
  const auto r = RecursivePartition(
      g, [](const Resource& d, int) { return d.cpu <= 8.0; }, {});
  const auto order = GroupsInLocalityOrder(r);
  ASSERT_EQ(static_cast<int>(order.size()), r.num_groups);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(r.group_path[static_cast<std::size_t>(order[i - 1])],
              r.group_path[static_cast<std::size_t>(order[i])]);
  }
}

TEST(RecursivePartition, CliquesStayTogether) {
  // 4 cliques of 8 (cpu 80 each), fit threshold 100: each clique is one
  // group; the weak bridges are the only cut edges.
  Graph g;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 8; ++i) {
      g.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
    }
    const int base = c * 8;
    for (int i = 0; i < 8; ++i) {
      for (int j = i + 1; j < 8; ++j) g.AddEdge(base + i, base + j, 10.0);
    }
  }
  for (int c = 0; c < 3; ++c) g.AddEdge(c * 8, (c + 1) * 8, 1.0);
  const auto r = RecursivePartition(
      g, [](const Resource& d, int) { return d.cpu <= 100.0; }, {});
  for (int c = 0; c < 4; ++c) {
    const int expected = r.group_of[static_cast<std::size_t>(c * 8)];
    for (int i = 1; i < 8; ++i) {
      EXPECT_EQ(r.group_of[static_cast<std::size_t>(c * 8 + i)], expected)
          << "clique " << c << " split";
    }
  }
}

// Parameterized scalability/sanity sweep.
class RecursivePartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(RecursivePartitionSweep, HandlesSize) {
  const int n = GetParam();
  const Graph g = RandomGraph(n, 8.0, static_cast<std::uint64_t>(n));
  const double cap = g.total_demand().cpu / 20.0;
  const auto r = RecursivePartition(
      g, [cap](const Resource& d, int) { return d.cpu <= cap; }, {});
  EXPECT_GE(r.num_groups, 15);
  EXPECT_NEAR(g.CutWeightKWay(r.group_of), r.cut_weight, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecursivePartitionSweep,
                         ::testing::Values(100, 1000, 5000));

// --- multi-trial FM winner fold (graph/refine.h) ----------------------------

TEST(PickFmWinnerTest, SmallerViolationBeatsSmallerCut) {
  const std::vector<FmTrialOutcome> trials = {
      {.violation = 2.0, .cut = 1.0},   // best cut, infeasible
      {.violation = 0.0, .cut = 50.0},  // feasible
      {.violation = 0.0, .cut = 40.0},  // feasible, best feasible cut
  };
  EXPECT_EQ(PickFmWinner(trials), 2u);
}

TEST(PickFmWinnerTest, TiesKeepTheSmallestTrialId) {
  const std::vector<FmTrialOutcome> trials = {
      {.violation = 0.0, .cut = 10.0},
      {.violation = 0.0, .cut = 10.0},
      {.violation = 0.0, .cut = 10.0 + 1e-13},  // inside tolerance: a tie
  };
  EXPECT_EQ(PickFmWinner(trials), 0u);
}

TEST(PickFmWinnerTest, FoldIsInvariantToOutcomePermutationModuloIds) {
  // The fold must be a pure function of the outcome *vector* — the same
  // outcomes in a different trial order may name a different id, but the
  // winning (violation, cut) value must be identical. That is exactly the
  // property the multi-trial refinement relies on: trial results are
  // gathered into trial-id order before folding, so completion order can
  // never leak in.
  std::vector<FmTrialOutcome> trials = {
      {.violation = 0.0, .cut = 31.0},
      {.violation = 1.0, .cut = 7.0},
      {.violation = 0.0, .cut = 29.0},
      {.violation = 0.0, .cut = 33.0},
  };
  const auto base = trials[PickFmWinner(trials)];
  std::vector<std::size_t> perm = {3, 0, 2, 1};
  std::vector<FmTrialOutcome> shuffled;
  for (const auto i : perm) shuffled.push_back(trials[i]);
  const auto alt = shuffled[PickFmWinner(shuffled)];
  EXPECT_DOUBLE_EQ(alt.violation, base.violation);
  EXPECT_DOUBLE_EQ(alt.cut, base.cut);
}

TEST(PickFmWinnerTest, ZeroToleranceIdealLosesOnlyToFeasibleZeroCut) {
  // The initial-trial stop test: {0, 0} fails to beat the best only when
  // the best is feasible with a cut of at most zero.
  const FmTrialOutcome ideal{};
  EXPECT_FALSE(FmOutcomeBeats(ideal, {.violation = 0.0, .cut = 0.0}, 0.0));
  EXPECT_FALSE(FmOutcomeBeats(ideal, {.violation = 0.0, .cut = -3.0}, 0.0));
  EXPECT_TRUE(FmOutcomeBeats(ideal, {.violation = 0.0, .cut = 1e-15}, 0.0));
  EXPECT_TRUE(FmOutcomeBeats(ideal, {.violation = 1e-15, .cut = 0.0}, 0.0));
}

TEST(BisectTest, MultiTrialRefinementNeverLosesToSingleTrial) {
  // Trial 0 replays the classic single-trial trajectory and the fold keeps
  // the best (violation, cut), so enabling trials can only improve the cut
  // for a feasible result.
  Rng rng(123);
  Graph g;
  constexpr int kN = 6000;  // above kParallelMinVertices: trials engage
  for (int i = 0; i < kN; ++i) {
    g.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int s = 0; s + 8 <= kN; s += 8) {
    for (int i = 1; i < 8; ++i) g.AddEdge(s, s + i, rng.Uniform(100, 5000));
  }
  for (int e = 0; e < kN / 2; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(kN));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(kN));
    if (a != b) g.AddEdge(a, b, rng.Uniform(1, 50));
  }
  PartitionOptions single;
  single.fm_trials = 1;
  const Bisection base = Bisect(g, single);
  PartitionOptions multi;
  ASSERT_GE(multi.fm_trials, 2) << "default must exercise the trial fold";
  const Bisection best = Bisect(g, multi);
  EXPECT_LE(best.cut_weight, base.cut_weight + 1e-9);
}

// --- unbeatable-trial stop (DESIGN.md §11) ----------------------------------

// `count` disjoint cliques of `size` unit-weight vertices, intra weight 10.
Graph DisjointCliques(int count, int size) {
  Graph g;
  for (int i = 0; i < count * size; ++i) {
    g.AddVertex(Resource{.cpu = 10, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int c = 0; c < count; ++c) {
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        g.AddEdge(c * size + i, c * size + j, 10.0);
      }
    }
  }
  return g;
}

struct CountedBisection {
  Bisection bisection;
  std::uint64_t cut_edges = 0;  // partition.cut_edges_evaluated delta
};

CountedBisection BisectCounted(const Graph& g, int initial_trials) {
  auto& cut_edges = obs::MetricsRegistry::Global().GetCounter(
      "partition.cut_edges_evaluated", obs::MetricKind::kDeterministic);
  PartitionOptions opts;
  opts.initial_trials = initial_trials;
  const auto before = cut_edges.value();
  CountedBisection out;
  out.bisection = Bisect(g, opts);
  out.cut_edges = cut_edges.value() - before;
  return out;
}

TEST(UnbeatableTrialStop, FeasibleZeroCutEndsTheTrialsAfterTrialZero) {
  // Trial 0 grows two whole cliques: balanced, cut 0. No later trial can
  // beat that, so 8 allowed trials cost exactly what 1 does.
  const Graph g = DisjointCliques(4, 6);
  const auto one = BisectCounted(g, 1);
  const auto eight = BisectCounted(g, 8);
  EXPECT_EQ(eight.bisection.side, one.bisection.side);
  EXPECT_EQ(eight.bisection.cut_weight, 0.0);
  EXPECT_TRUE(eight.bisection.balanced);
  EXPECT_GT(one.cut_edges, 0u);
  EXPECT_EQ(eight.cut_edges, one.cut_edges);
}

TEST(UnbeatableTrialStop, NegativeArcRunsEveryTrial) {
  // Merged into the weight-10 clique edge: one -5 anti-affinity arc makes
  // a negative cut possible, so a zero cut is no longer unbeatable.
  Graph g = DisjointCliques(4, 6);
  g.AddEdge(0, 1, -15.0);
  EXPECT_GT(BisectCounted(g, 8).cut_edges, BisectCounted(g, 1).cut_edges);
}

TEST(UnbeatableTrialStop, NoZeroCutRunsEveryTrial) {
  const Graph g = Ring(40);
  EXPECT_GT(BisectCounted(g, 8).cut_edges, BisectCounted(g, 1).cut_edges);
}

TEST(UnbeatableTrialStop, SaltReadingLevelsRunEveryTrial) {
  // Large enough for multi-trial FM on the finest level, whose salt comes
  // from the stream the skipped trials would have advanced: the stop must
  // stay off even though a zero cut exists. The cliques are big enough to
  // keep arcs on the coarsest level, so the trials show in the counter.
  const Graph g = DisjointCliques(32, 128);
  ASSERT_GE(g.num_vertices(), kParallelMinVertices);
  ASSERT_GT(PartitionOptions{}.fm_trials, 1);
  const auto one = BisectCounted(g, 1);
  const auto eight = BisectCounted(g, 8);
  EXPECT_EQ(eight.bisection.cut_weight, 0.0);
  EXPECT_GT(eight.cut_edges, one.cut_edges);
}

}  // namespace
}  // namespace gl
