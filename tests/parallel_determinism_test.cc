// Serial-vs-parallel equivalence gate (DESIGN.md §9).
//
// The concurrency contract promises that the `threads` knobs never change
// results: the same seed must produce bit-identical EpochStateHash streams
// and final placements at threads=1, 2, 3, 4 and 8. These tests are the
// contract's executable form, and CI runs them under TSan so a data race in
// the parallel paths fails the build even when it happens not to corrupt
// the hashes.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/state_hash.h"
#include "core/scheduler_factory.h"
#include "graph/partitioner.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

constexpr int kEpochs = 10;
const int kThreadCounts[] = {1, 2, 3, 4, 8};

std::vector<EpochStateHash> RunHashed(const std::string& scheduler_name,
                                      const Scenario& scenario,
                                      const Topology& topo,
                                      int partition_threads) {
  auto scheduler =
      MakeNamedScheduler(scheduler_name, 0.70, 0xfeed, partition_threads);
  RunnerOptions opts;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(scenario, topo, opts);
  return runner.Run(*scheduler).state_hashes;
}

void ExpectIdenticalAcrossThreadCounts(const std::string& scheduler_name) {
  const auto scenario = MakeTwitterCachingScenario({.num_epochs = kEpochs});
  const auto topo = Topology::Testbed16();
  const auto serial = RunHashed(scheduler_name, *scenario, topo, 1);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kEpochs));
  for (const int threads : kThreadCounts) {
    const auto parallel = RunHashed(scheduler_name, *scenario, topo, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t e = 0; e < serial.size(); ++e) {
      const char* diverged = FirstDivergentSubsystem(serial[e], parallel[e]);
      EXPECT_EQ(diverged, nullptr)
          << "threads=" << threads << " diverged at epoch " << e << " in '"
          << (diverged ? diverged : "") << "'\n  serial:   "
          << serial[e].ToString() << "\n  parallel: "
          << parallel[e].ToString();
      if (diverged != nullptr) return;
    }
  }
}

// Goldilocks exercises the parallel partitioner every epoch.
TEST(ParallelDeterminism, GoldilocksHashStreamIsThreadCountInvariant) {
  ExpectIdenticalAcrossThreadCounts("goldilocks");
}

// A baseline without a partitioner still crosses RunMany and the estimator;
// its hashes must be untouched by the threading knobs too.
TEST(ParallelDeterminism, BorgHashStreamIsThreadCountInvariant) {
  ExpectIdenticalAcrossThreadCounts("borg");
}

// RunMany must equal per-scheduler Run() calls — same objects, same order —
// at every fan-out width.
TEST(ParallelDeterminism, RunManyMatchesSequentialRuns) {
  const auto scenario = MakeTwitterCachingScenario({.num_epochs = kEpochs});
  const auto topo = Topology::Testbed16();
  const std::vector<std::string> names = {"goldilocks", "borg"};

  std::vector<std::vector<EpochStateHash>> sequential;
  for (const auto& name : names) {
    sequential.push_back(RunHashed(name, *scenario, topo, 1));
  }

  for (const int threads : kThreadCounts) {
    RunnerOptions opts;
    opts.record_state_hashes = true;
    opts.threads = threads;
    const ExperimentRunner runner(*scenario, topo, opts);
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<Scheduler*> ptrs;
    for (const auto& name : names) {
      schedulers.push_back(MakeNamedScheduler(name, 0.70, 0xfeed, 1));
      ptrs.push_back(schedulers.back().get());
    }
    const auto results = runner.RunMany(ptrs);
    ASSERT_EQ(results.size(), names.size());
    for (std::size_t s = 0; s < results.size(); ++s) {
      ASSERT_EQ(results[s].state_hashes.size(), sequential[s].size());
      for (std::size_t e = 0; e < sequential[s].size(); ++e) {
        EXPECT_EQ(FirstDivergentSubsystem(sequential[s][e],
                                          results[s].state_hashes[e]),
                  nullptr)
            << names[s] << " threads=" << threads << " epoch " << e;
      }
    }
  }
}

// Clustered graph shaped like a container graph: services of ~8 with heavy
// intra edges, sparse light inter-service edges.
Graph ServiceClusteredGraph(int vertices, std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  for (int i = 0; i < vertices; ++i) {
    g.AddVertex(Resource{.cpu = rng.Uniform(20, 60), .mem_gb = 4,
                         .net_mbps = rng.Uniform(5, 50)},
                1.0);
  }
  for (int s = 0; s + 8 <= vertices; s += 8) {
    for (int i = 1; i < 8; ++i) g.AddEdge(s, s + i, rng.Uniform(100, 5000));
  }
  for (int e = 0; e < vertices / 2; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(vertices));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(vertices));
    if (a != b) g.AddEdge(a, b, rng.Uniform(1, 50));
  }
  return g;
}

// A deliberately unbalanced recursion: one heavy, tightly chained cluster
// that needs many splits beside many light four-container services that
// fit after a few, so sibling subtrees differ widely in depth and cost.
Graph HeavyPlusLightClustersGraph(std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  constexpr int kHeavy = 600;
  constexpr int kLight = 1200;
  for (int i = 0; i < kHeavy; ++i) {
    g.AddVertex(Resource{.cpu = rng.Uniform(200, 400), .mem_gb = 2,
                         .net_mbps = rng.Uniform(5, 20)},
                1.0);
  }
  for (int i = 0; i < kLight; ++i) {
    g.AddVertex(Resource{.cpu = rng.Uniform(5, 15), .mem_gb = 1,
                         .net_mbps = rng.Uniform(1, 5)},
                1.0);
  }
  for (int i = 1; i < kHeavy; ++i) {
    const auto back = static_cast<int>(rng.NextBelow(std::min(i, 8)));
    g.AddEdge(i - 1 - back, i, rng.Uniform(100, 1000));
  }
  for (int s = kHeavy; s + 4 <= kHeavy + kLight; s += 4) {
    for (int i = 1; i < 4; ++i) g.AddEdge(s, s + i, rng.Uniform(10, 100));
  }
  return g;
}

// Partitioner-level check: every field of the result — group numbering,
// recursion paths, demands, sizes and the float cut weight — is exactly
// equal, not merely hash-equal, at every thread count.
TEST(ParallelDeterminism, RecursivePartitionIsExactlyThreadCountInvariant) {
  const Resource ceiling{.cpu = 2240, .mem_gb = 57, .net_mbps = 700};
  const auto fits = [&](const Resource& demand, int) {
    return demand.FitsIn(ceiling);
  };
  const Graph graphs[] = {ServiceClusteredGraph(800, 7),
                          HeavyPlusLightClustersGraph(5)};
  for (const Graph& g : graphs) {
    PartitionOptions opts;
    const auto serial = RecursivePartition(g, fits, opts);
    EXPECT_GT(serial.num_groups, 1);
    for (const int threads : kThreadCounts) {
      PartitionOptions popts;
      popts.threads = threads;
      const auto parallel = RecursivePartition(g, fits, popts);
      EXPECT_EQ(parallel.group_of, serial.group_of) << "threads=" << threads;
      EXPECT_EQ(parallel.num_groups, serial.num_groups);
      EXPECT_EQ(parallel.group_path, serial.group_path);
      EXPECT_EQ(parallel.group_size, serial.group_size);
      EXPECT_EQ(parallel.oversized_groups, serial.oversized_groups);
      ASSERT_EQ(parallel.group_demand.size(), serial.group_demand.size());
      for (std::size_t i = 0; i < serial.group_demand.size(); ++i) {
        EXPECT_EQ(parallel.group_demand[i].cpu, serial.group_demand[i].cpu);
        EXPECT_EQ(parallel.group_demand[i].mem_gb,
                  serial.group_demand[i].mem_gb);
        EXPECT_EQ(parallel.group_demand[i].net_mbps,
                  serial.group_demand[i].net_mbps);
      }
      // Bit-equality, not tolerance: the parallel fold replays the serial
      // summation order.
      EXPECT_EQ(parallel.cut_weight, serial.cut_weight)
          << "threads=" << threads;
    }
  }
}

// Intra-bisection check above the multi-trial gate (kParallelMinVertices):
// one Bisect call large enough that the parallel coarsening chunks, the
// pooled FM trials and the projection recomputation all engage. The side
// vector and the float cut must be bit-identical at every width — and under
// TSan this is the test that drives the chunked matching/contraction and
// concurrent FM trials hard enough to surface a data race.
TEST(ParallelDeterminism, LargeBisectionIsExactlyThreadCountInvariant) {
  Rng rng(21);
  Graph g;
  constexpr int kVertices = 6000;  // > kParallelMinVertices
  for (int i = 0; i < kVertices; ++i) {
    g.AddVertex(Resource{.cpu = rng.Uniform(20, 60), .mem_gb = 4,
                         .net_mbps = rng.Uniform(5, 50)},
                1.0);
  }
  for (int s = 0; s + 8 <= kVertices; s += 8) {
    for (int i = 1; i < 8; ++i) g.AddEdge(s, s + i, rng.Uniform(100, 5000));
  }
  for (int e = 0; e < kVertices / 2; ++e) {
    const auto a = static_cast<VertexIndex>(rng.NextBelow(kVertices));
    const auto b = static_cast<VertexIndex>(rng.NextBelow(kVertices));
    if (a != b) g.AddEdge(a, b, rng.Uniform(1, 50));
  }

  PartitionOptions serial_opts;
  static_assert(kParallelMinVertices < kVertices);
  ASSERT_GE(serial_opts.fm_trials, 2);
  const Bisection serial = Bisect(g, serial_opts);
  EXPECT_GT(serial.cut_weight, 0.0);
  for (const int threads : kThreadCounts) {
    PartitionOptions popts;
    popts.threads = threads;
    const Bisection parallel = Bisect(g, popts);
    EXPECT_EQ(parallel.side, serial.side) << "threads=" << threads;
    EXPECT_EQ(parallel.cut_weight, serial.cut_weight)
        << "threads=" << threads;
    EXPECT_EQ(parallel.side_weight[0], serial.side_weight[0]);
    EXPECT_EQ(parallel.side_weight[1], serial.side_weight[1]);
  }
}

}  // namespace
}  // namespace gl
