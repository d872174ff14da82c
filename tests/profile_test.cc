// Tests for obs/profile.h (span-stream attribution) and the memory
// observability seams it reports on (obs/memory.h, graph/scratch.h).
//
// The determinism angle throughout: a profile's *shape* — names and counts —
// must be identical at every thread count even though the times differ,
// because aggregation keys on span names and the span set per run is fixed
// by the work, not the schedule (DESIGN.md §15).
#include "obs/profile.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "graph/graph.h"
#include "graph/partitioner.h"
#include "graph/scratch.h"
#include "obs/memory.h"
#include "obs/trace.h"

namespace gl {
namespace {

// --- hand-built DAG --------------------------------------------------------
//
// One root on tid 0 with a serial prefix, two parallel worker lanes (one
// carrying a nested span), and a serial tail (times in µs):
//
//   root  [0 ....................................... 100000]   tid 0
//     prep   [0 .. 20000]                                       tid 0
//     worker A      [20000 ........ 60000]                      tid 1
//       inner          [25000 .. 35000]                         tid 1
//     worker B        [25000 ............ 66000]                tid 2
//     tail                              [70000 .... 100000]     tid 0
//
// Worker lanes open at depth 0 on their own threads; the forest builder must
// adopt them under root by time containment. The two workers overlap without
// either containing the other (B starts after A starts and ends after A
// ends), so neither can be mis-adopted under its sibling — both land under
// root, in one overlap cluster spanning [20000, 66000].
std::vector<obs::TraceEvent> HandBuiltDag() {
  // Sorted by (tid, start_us, depth), as Trace::Events() guarantees.
  // cpu_us stays at its default (-1, unknown) so the critical path uses the
  // wall-time fallback these expectations were written against.
  return {
      {.name = "root", .tid = 0, .depth = 0, .start_us = 0.0,
       .dur_us = 100000.0},
      {.name = "prep", .tid = 0, .depth = 1, .start_us = 0.0,
       .dur_us = 20000.0},
      {.name = "tail", .tid = 0, .depth = 1, .start_us = 70000.0,
       .dur_us = 30000.0},
      {.name = "worker", .tid = 1, .depth = 0, .start_us = 20000.0,
       .dur_us = 40000.0, .arg = 1},
      {.name = "inner", .tid = 1, .depth = 1, .start_us = 25000.0,
       .dur_us = 10000.0},
      {.name = "worker", .tid = 2, .depth = 0, .start_us = 25000.0,
       .dur_us = 41000.0, .arg = 2},
  };
}

TEST(ProfileTest, AggregatesHandBuiltDagWithCrossThreadAdoption) {
  const obs::Profile p = obs::BuildProfile(HandBuiltDag());

  // Tree: (root synthetic) -> root -> {prep, tail, worker -> inner}.
  ASSERT_EQ(p.root.children.size(), 1u);
  const obs::ProfileNode& root = p.root.children[0];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.count, 1u);
  EXPECT_DOUBLE_EQ(root.total_us, 100000.0);
  // Direct children sum to 131000 µs (parallel lanes oversubscribe the
  // parent's wall), so root's self time clamps to zero.
  EXPECT_DOUBLE_EQ(root.self_us, 0.0);
  ASSERT_EQ(root.children.size(), 3u);  // sorted by name
  EXPECT_EQ(root.children[0].name, "prep");
  EXPECT_EQ(root.children[1].name, "tail");
  EXPECT_EQ(root.children[2].name, "worker");
  const obs::ProfileNode& worker = root.children[2];
  EXPECT_EQ(worker.count, 2u);
  EXPECT_DOUBLE_EQ(worker.total_us, 81000.0);
  EXPECT_DOUBLE_EQ(worker.self_us, 71000.0);  // 30000 (A) + 41000 (B)
  ASSERT_EQ(worker.children.size(), 1u);
  EXPECT_EQ(worker.children[0].name, "inner");
  EXPECT_EQ(worker.children[0].count, 1u);

  // Flat: self-time descending.
  ASSERT_EQ(p.flat.size(), 5u);
  EXPECT_EQ(p.flat[0].name, "worker");
  EXPECT_DOUBLE_EQ(p.flat[0].self_us, 71000.0);
  EXPECT_EQ(p.flat[1].name, "tail");
  EXPECT_EQ(p.flat[2].name, "prep");
  EXPECT_EQ(p.flat[3].name, "inner");
  EXPECT_EQ(p.flat[4].name, "root");
  EXPECT_DOUBLE_EQ(p.flat[4].self_us, 0.0);
}

TEST(ProfileTest, CollapsedStacksAreCanonical) {
  const std::string collapsed =
      obs::CollapsedStacks(obs::BuildProfile(HandBuiltDag()));
  EXPECT_EQ(collapsed,
            "root;prep 20000\n"
            "root;tail 30000\n"
            "root;worker 71000\n"
            "root;worker;inner 10000\n");
}

TEST(CriticalPathTest, HandBuiltDagHasExactPathAndSerialShare) {
  const obs::CriticalPathResult cp =
      obs::ComputeCriticalPath(HandBuiltDag(), "root");
  EXPECT_EQ(cp.root_name, "root");
  EXPECT_DOUBLE_EQ(cp.root_ms, 100.0);

  // Clusters under root: [prep] , [worker A | worker B] , [tail]. The
  // worker cluster's critical path is worker B (41 ms > A's 40 ms, inner
  // included), walked with width 2; root keeps 4 ms of uncovered self (the
  // 66000..70000 gap between the worker cluster and tail).
  ASSERT_EQ(cp.steps.size(), 4u);
  EXPECT_EQ(cp.steps[0].name, "root");
  EXPECT_DOUBLE_EQ(cp.steps[0].ms, 4.0);
  EXPECT_EQ(cp.steps[0].width, 1);
  EXPECT_EQ(cp.steps[1].name, "prep");
  EXPECT_DOUBLE_EQ(cp.steps[1].ms, 20.0);
  EXPECT_EQ(cp.steps[1].width, 1);
  EXPECT_EQ(cp.steps[2].name, "worker");
  EXPECT_EQ(cp.steps[2].arg, 2);  // worker B carries the path
  EXPECT_DOUBLE_EQ(cp.steps[2].ms, 41.0);
  EXPECT_EQ(cp.steps[2].width, 2);
  EXPECT_EQ(cp.steps[3].name, "tail");
  EXPECT_DOUBLE_EQ(cp.steps[3].ms, 30.0);
  EXPECT_EQ(cp.steps[3].width, 1);

  // The path is shorter than root's wall: the cluster extent (46 ms) covers
  // more wall than its best member contributes (41 ms).
  EXPECT_DOUBLE_EQ(cp.path_ms, 95.0);
  // Serial share: everything except the width-2 worker step.
  EXPECT_DOUBLE_EQ(cp.serial_ms, 54.0);
}

TEST(CriticalPathTest, CpuTimeOverridesWallFallbackWhenPresent) {
  // On an oversubscribed machine span wall time includes timesliced-out
  // periods; when cpu_us is recorded the path must charge each step its CPU
  // self time (own cpu minus same-tid direct children's cpu) instead of the
  // wall remainder. Here every span is stretched 2x in wall terms: the wall
  // fallback would report a 100 ms path, the cpu costs say 50 ms.
  const std::vector<obs::TraceEvent> events = {
      {.name = "root", .tid = 0, .depth = 0, .start_us = 0.0,
       .dur_us = 100000.0, .cpu_us = 50000.0},
      {.name = "a", .tid = 0, .depth = 1, .start_us = 10000.0,
       .dur_us = 80000.0, .cpu_us = 30000.0},
      {.name = "b", .tid = 0, .depth = 2, .start_us = 20000.0,
       .dur_us = 30000.0, .cpu_us = 20000.0},
  };
  const obs::CriticalPathResult cp = obs::ComputeCriticalPath(events, "root");
  ASSERT_EQ(cp.steps.size(), 3u);
  EXPECT_EQ(cp.steps[0].name, "root");
  EXPECT_DOUBLE_EQ(cp.steps[0].ms, 20.0);  // 50000 - a's 30000
  EXPECT_EQ(cp.steps[1].name, "a");
  EXPECT_DOUBLE_EQ(cp.steps[1].ms, 10.0);  // 30000 - b's 20000
  EXPECT_EQ(cp.steps[2].name, "b");
  EXPECT_DOUBLE_EQ(cp.steps[2].ms, 20.0);
  EXPECT_DOUBLE_EQ(cp.path_ms, 50.0);
  EXPECT_DOUBLE_EQ(cp.serial_ms, 50.0);
}

TEST(CriticalPathTest, ParallelLanesClusterWithoutWallOverlap) {
  // Three same-name lanes of a data-parallel batch, machine-serialized onto
  // one thread (no wall overlap). Declared parallel_lane, they must merge
  // into one width-3 cluster charged at its best member — not a 90 ms
  // serial chain.
  const std::vector<obs::TraceEvent> events = {
      {.name = "root", .tid = 0, .depth = 0, .start_us = 0.0,
       .dur_us = 100000.0},
      {.name = "trial", .tid = 0, .depth = 1, .start_us = 0.0,
       .dur_us = 30000.0, .parallel_lane = true, .arg = 0},
      {.name = "trial", .tid = 0, .depth = 1, .start_us = 30000.0,
       .dur_us = 30000.0, .parallel_lane = true, .arg = 1},
      {.name = "trial", .tid = 0, .depth = 1, .start_us = 60000.0,
       .dur_us = 30000.0, .parallel_lane = true, .arg = 2},
  };
  const obs::CriticalPathResult cp = obs::ComputeCriticalPath(events, "root");
  ASSERT_EQ(cp.steps.size(), 2u);
  EXPECT_EQ(cp.steps[0].name, "root");
  EXPECT_DOUBLE_EQ(cp.steps[0].ms, 10.0);  // 100000 - 90000 lane extent
  EXPECT_EQ(cp.steps[1].name, "trial");
  EXPECT_DOUBLE_EQ(cp.steps[1].ms, 30.0);
  EXPECT_EQ(cp.steps[1].width, 3);
  EXPECT_DOUBLE_EQ(cp.path_ms, 40.0);
  EXPECT_DOUBLE_EQ(cp.serial_ms, 10.0);

  // The same shape without the lane flag is a serial chain: each span is
  // its own singleton cluster and every millisecond lands on the path.
  std::vector<obs::TraceEvent> plain = events;
  for (auto& ev : plain) ev.parallel_lane = false;
  const obs::CriticalPathResult serial =
      obs::ComputeCriticalPath(plain, "root");
  EXPECT_DOUBLE_EQ(serial.serial_ms, serial.path_ms);
  EXPECT_DOUBLE_EQ(serial.path_ms, 100.0);  // 10 self + 3 x 30
}

TEST(CriticalPathTest, DefaultRootIsLongestTopLevelSpan) {
  const obs::CriticalPathResult cp = obs::ComputeCriticalPath(HandBuiltDag());
  EXPECT_EQ(cp.root_name, "root");
  const obs::CriticalPathResult none =
      obs::ComputeCriticalPath(HandBuiltDag(), "no-such-span");
  EXPECT_TRUE(none.root_name.empty());
  EXPECT_TRUE(none.steps.empty());
}

// --- shape invariance across thread counts ---------------------------------

// Name-keyed (name, count) profile of a traced workload. Counts are the
// schedule-independent part of a profile: the span set per run is fixed by
// the work, so they must match at every thread count even though times (and
// which lane a span landed on) differ. Exact nesting under races is pinned
// by the deterministic hand-built DAG tests above, not re-asserted here.
std::vector<std::pair<std::string, std::uint64_t>> TracedWorkloadCounts(
    int threads) {
  obs::Trace trace;
  trace.Activate();
  {
    obs::TraceSpan outer("outer");
    ThreadPool pool(threads);
    pool.ParallelFor(8, [](std::size_t i) {
      obs::TraceSpan work("work", static_cast<std::int64_t>(i));
      obs::TraceSpan inner("work.inner");
    });
  }
  trace.Deactivate();
  const obs::Profile p = obs::BuildProfile(trace.Events());
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  for (const auto& e : p.flat) counts.emplace_back(e.name, e.count);
  std::sort(counts.begin(), counts.end());
  return counts;
}

TEST(ProfileTest, SpanCountsAreIdenticalAtEveryThreadCount) {
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"outer", 1}, {"work", 8}, {"work.inner", 8}};
  EXPECT_EQ(TracedWorkloadCounts(1), expected);
  EXPECT_EQ(TracedWorkloadCounts(2), expected);
  EXPECT_EQ(TracedWorkloadCounts(8), expected);
}

TEST(ProfileTest, SerialRunNestsSpansUnderTheOuterSpan) {
  obs::Trace trace;
  trace.Activate();
  {
    obs::TraceSpan outer("outer");
    ThreadPool pool(1);
    pool.ParallelFor(4, [](std::size_t) {
      obs::TraceSpan work("work");
      obs::TraceSpan inner("work.inner");
    });
  }
  trace.Deactivate();
  // Serial execution is a single lane: nesting comes straight from the span
  // stack, with no adoption involved — (root) -> outer -> work -> work.inner.
  const obs::Profile p = obs::BuildProfile(trace.Events());
  ASSERT_EQ(p.root.children.size(), 1u);
  const obs::ProfileNode& outer = p.root.children[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0].name, "work");
  EXPECT_EQ(outer.children[0].count, 4u);
  ASSERT_EQ(outer.children[0].children.size(), 1u);
  EXPECT_EQ(outer.children[0].children[0].name, "work.inner");
  EXPECT_EQ(outer.children[0].children[0].count, 4u);
}

// Finds the first node named `name` in a depth-first walk, or nullptr.
const obs::ProfileNode* FindNode(const obs::ProfileNode& n,
                                 const std::string& name) {
  if (n.name == name) return &n;
  for (const auto& child : n.children) {
    if (const auto* found = FindNode(child, name)) return found;
  }
  return nullptr;
}

// Every split's CSR extraction is its own span under partition.split, so
// the profile attributes it instead of leaving it in the split's self time.
TEST(ProfileTest, PartitionSplitAttributesExtraction) {
  Graph g;
  for (int i = 0; i < 64; ++i) {
    g.AddVertex(Resource{.cpu = 1, .mem_gb = 1, .net_mbps = 1}, 1.0);
  }
  for (int i = 0; i < 64; ++i) g.AddEdge(i, (i + 1) % 64, 1.0);
  obs::Trace trace;
  trace.Activate();
  const auto r = RecursivePartition(
      g, [](const Resource& d, int) { return d.cpu <= 10.0; }, {});
  trace.Deactivate();
  ASSERT_GE(r.num_groups, 7);
  const obs::Profile p = obs::BuildProfile(trace.Events());
  const obs::ProfileNode* split = FindNode(p.root, "partition.split");
  ASSERT_NE(split, nullptr);
  const auto extract = std::find_if(
      split->children.begin(), split->children.end(),
      [](const obs::ProfileNode& c) { return c.name == "partition.extract"; });
  ASSERT_NE(extract, split->children.end());
  EXPECT_EQ(extract->count, split->count);
  std::uint64_t splits = 0;
  std::uint64_t extracts = 0;
  for (const auto& e : p.flat) {
    if (e.name == "partition.split") splits = e.count;
    if (e.name == "partition.extract") extracts = e.count;
  }
  EXPECT_EQ(extracts, splits);
  EXPECT_EQ(splits, static_cast<std::uint64_t>(r.num_groups - 1));
}

// --- memory observability ---------------------------------------------------

TEST(MemoryObsTest, VectorFootprintTracksCapacityNotSize) {
  std::vector<double> v;
  EXPECT_EQ(obs::VectorFootprintBytes(v), 0u);
  v.reserve(100);
  EXPECT_EQ(obs::VectorFootprintBytes(v), 100 * sizeof(double));
  v.resize(10);
  EXPECT_EQ(obs::VectorFootprintBytes(v), v.capacity() * sizeof(double));
}

TEST(MemoryObsTest, ScratchHighWaterIsMonotoneAcrossShrinkingProblems) {
  PartitionScratch s;
  EXPECT_EQ(s.peak_bytes, 0u);
  s.gain.reserve(4096);
  ASSERT_TRUE(s.NoteHighWater());
  const std::size_t after_big = s.peak_bytes;
  EXPECT_GE(after_big, 4096 * sizeof(double));

  // A smaller follow-up problem (capacities retained, nothing grows): the
  // mark must not move, and must never decrease.
  s.gain.clear();
  EXPECT_FALSE(s.NoteHighWater());
  EXPECT_EQ(s.peak_bytes, after_big);

  // Growth moves it again.
  s.side.reserve(1 << 16);
  ASSERT_TRUE(s.NoteHighWater());
  EXPECT_GT(s.peak_bytes, after_big);
}

TEST(MemoryObsTest, GroupAccumulatorCountsOnlyGrowingResets) {
  GroupAccumulator acc;
  EXPECT_EQ(acc.grow_events(), 0u);
  acc.Reset(64);
  EXPECT_EQ(acc.grow_events(), 1u);
  acc.Reset(32);  // smaller universe: reuse, no growth
  acc.Reset(64);  // equal to capacity: reuse, no growth
  EXPECT_EQ(acc.grow_events(), 1u);
  acc.Reset(128);
  EXPECT_EQ(acc.grow_events(), 2u);
  EXPECT_GE(acc.ApproxBytes(),
            128 * (sizeof(double) + sizeof(std::uint32_t)));
}

TEST(MemoryObsTest, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(obs::PeakRssBytes(), 0u);
#else
  SUCCEED();
#endif
}

}  // namespace
}  // namespace gl
