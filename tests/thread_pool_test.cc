#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gl {
namespace {

TEST(ThreadPool, ClampsToAtLeastOneThread) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.num_threads(), 4);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.ParallelFor(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, EmptyLoopIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ResultSlotsMatchSerialAtAnyThreadCount) {
  constexpr std::size_t kCount = 257;
  auto task = [](std::size_t i) {
    return static_cast<std::uint64_t>(i) * 2654435761u + 17;
  };
  std::vector<std::uint64_t> expected(kCount);
  for (std::size_t i = 0; i < kCount; ++i) expected[i] = task(i);

  for (const int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> got(kCount, 0);
    pool.ParallelFor(kCount, [&](std::size_t i) { got[i] = task(i); });
    EXPECT_EQ(got, expected) << "threads " << threads;
  }
}

TEST(ThreadPool, PoolIsReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(10, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45) << "round " << round;
  }
}

TEST(ThreadPool, ParallelForWithRngMatchesKeyedForks) {
  const Rng base(0x5eed);
  constexpr std::size_t kCount = 64;
  // Expected: task i draws from base.Fork(i), regardless of thread count.
  std::vector<std::uint64_t> expected(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    Rng sub = base.Fork(i);
    expected[i] = sub.NextU64();
  }
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> got(kCount, 0);
    pool.ParallelForWithRng(kCount, base, [&](std::size_t i, Rng& rng) {
      got[i] = rng.NextU64();
    });
    EXPECT_EQ(got, expected) << "threads " << threads;
  }
}

TEST(ThreadPool, ParallelForWithRngLeavesBaseUntouched) {
  Rng base(0xabc);
  const auto before = base.StateHash();
  ThreadPool pool(4);
  pool.ParallelForWithRng(100, base, [](std::size_t, Rng& rng) {
    (void)rng.NextDouble();
  });
  EXPECT_EQ(base.StateHash(), before);
}

TEST(ThreadPool, StatsAccountForEveryBatchAndTask) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sink{0};
  pool.ParallelFor(100, [&](std::size_t i) {
    std::uint64_t h = i * 2654435761u;
    for (int r = 0; r < 200; ++r) h = h * 6364136223846793005u + 1;
    sink.fetch_add(h, std::memory_order_relaxed);
  });
  pool.ParallelFor(50, [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  });

  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.workers, 4);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.tasks, 150u);
  ASSERT_EQ(stats.per_thread_busy_us.size(), 4u);
  // Per-thread busy partitions total busy: same elapsed values, summed per
  // slot instead of chronologically — equal up to FP addition order.
  const double per_thread_sum =
      std::accumulate(stats.per_thread_busy_us.begin(),
                      stats.per_thread_busy_us.end(), 0.0);
  EXPECT_NEAR(per_thread_sum, stats.busy_us,
              1e-9 * stats.busy_us + 1e-6);
  EXPECT_GE(stats.queue_wait_us, 0.0);
  EXPECT_GE(stats.batch_wall_us, 0.0);
  EXPECT_GE(stats.ParallelEfficiency(), 0.0);
  EXPECT_GE(stats.IdleUs(), 0.0);
}

TEST(ThreadPool, ChunkedStatsAccountForEveryChunkAndCoverTheRange) {
  ThreadPool pool(4);
  constexpr std::size_t kTotal = 10000;
  constexpr std::size_t kGrain = 256;
  constexpr std::size_t kChunks = (kTotal + kGrain - 1) / kGrain;
  std::vector<std::atomic<int>> hit(kTotal);
  for (auto& h : hit) h.store(0, std::memory_order_relaxed);
  pool.ParallelForChunked(kTotal, kGrain,
                          [&](int slot, std::size_t begin, std::size_t end) {
                            EXPECT_GE(slot, 0);
                            EXPECT_LT(slot, 4);
                            EXPECT_EQ(begin % kGrain, 0u);
                            EXPECT_LE(end, kTotal);
                            for (std::size_t i = begin; i < end; ++i) {
                              hit[i].fetch_add(1, std::memory_order_relaxed);
                            }
                          });
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hit[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
  // A chunked batch counts one batch and one task per chunk, so pool
  // telemetry (and the parallel_efficiency gauge built on it) prices
  // chunked and per-index batches identically.
  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.tasks, kChunks);
  EXPECT_GT(stats.busy_us, 0.0);
  EXPECT_GE(stats.ParallelEfficiency(), 0.0);
}

TEST(ThreadPool, ChunkedInlinePathMatchesPooledChunkDecomposition) {
  // The serial fast path must present the identical (slot=0) chunk
  // sequence the pooled path distributes — fixed-grain chunking is part of
  // the determinism contract (DESIGN.md §9), not a scheduling detail.
  const auto run = [](int threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.ParallelForChunked(1000, 128,
                            [&](int, std::size_t begin, std::size_t end) {
                              std::lock_guard<std::mutex> lock(mu);
                              chunks.emplace_back(begin, end);
                            });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.size(), 8u);
  EXPECT_EQ(serial.front().first, 0u);
  EXPECT_EQ(serial.back().second, 1000u);
  EXPECT_EQ(run(4), serial);
}

TEST(ThreadPool, SerialFastPathHasUnitEfficiency) {
  ThreadPool pool(1);
  volatile std::uint64_t sink = 0;
  pool.ParallelFor(10, [&](std::size_t i) {
    std::uint64_t h = i;
    for (int r = 0; r < 1000; ++r) h = h * 6364136223846793005u + 1;
    sink = h;
  });
  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.tasks, 10u);
  // The inline path times the whole run as one bracket, so busy == wall
  // bitwise and the ratio is exactly 1 (and 1 by convention when wall
  // rounds to zero microseconds).
  EXPECT_DOUBLE_EQ(stats.ParallelEfficiency(), 1.0);
  EXPECT_DOUBLE_EQ(stats.IdleUs(), 0.0);
  EXPECT_DOUBLE_EQ(stats.queue_wait_us, 0.0);
}

TEST(ThreadPool, FreshPoolReportsUnitEfficiencyNotNan) {
  ThreadPool pool(8);
  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_DOUBLE_EQ(stats.ParallelEfficiency(), 1.0);  // 0/0 convention
  EXPECT_DOUBLE_EQ(stats.IdleUs(), 0.0);
}

// Three-deep nesting on one pool, mixing both loop kinds: the outer
// ParallelFor's tasks run chunked loops whose chunks run ParallelFor again.
// Leaf (i, j, k) writes only its own slot, so the result must equal the
// serial run bit for bit at every width.
constexpr std::size_t kOuter = 5;
constexpr std::size_t kMiddle = 37;  // chunked with grain 4: 10 chunks
constexpr std::size_t kInner = 6;

std::vector<std::uint64_t> NestedLeafValues(
    ThreadPool& pool, std::vector<std::atomic<int>>& hits) {
  std::vector<std::uint64_t> out(kOuter * kMiddle * kInner, 0);
  pool.ParallelFor(kOuter, [&](std::size_t i) {
    pool.ParallelForChunked(
        kMiddle, 4, [&](int slot, std::size_t begin, std::size_t end) {
          EXPECT_GE(slot, 0);
          EXPECT_LT(slot, pool.num_threads());
          for (std::size_t j = begin; j < end; ++j) {
            pool.ParallelFor(kInner, [&, i, j](std::size_t k) {
              const std::size_t leaf = (i * kMiddle + j) * kInner + k;
              hits[leaf].fetch_add(1, std::memory_order_relaxed);
              std::uint64_t h = leaf * 2654435761u + 17;
              for (int r = 0; r < 100; ++r) h = h * 6364136223846793005u + 1;
              out[leaf] = h;
            });
          }
        });
  });
  return out;
}

TEST(ThreadPool, NestedLoopsRunEveryIndexOnceAndMatchSerial) {
  const std::size_t leaves = kOuter * kMiddle * kInner;
  ThreadPool serial_pool(1);
  std::vector<std::atomic<int>> serial_hits(leaves);
  const auto expected = NestedLeafValues(serial_pool, serial_hits);
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(leaves);
    EXPECT_EQ(NestedLeafValues(pool, hits), expected)
        << "threads " << threads;
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
      ASSERT_EQ(hits[leaf].load(), 1)
          << "leaf " << leaf << " threads " << threads;
    }
  }
}

// Nested loops are counted as tasks and batches, but their time is already
// inside an outer task's busy bracket and an outer batch's wall: counting
// it again would push the efficiency past 1.
TEST(ThreadPool, NestedStatsCountOnlyOutermostTime) {
  const std::size_t leaves = kOuter * kMiddle * kInner;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(leaves);
    (void)NestedLeafValues(pool, hits);
    const ThreadPoolStats stats = pool.Stats();
    EXPECT_EQ(stats.batches, 1u + kOuter + kOuter * kMiddle)
        << "threads " << threads;
    EXPECT_EQ(stats.tasks, kOuter + kOuter * 10u + leaves);
    const double per_thread_sum =
        std::accumulate(stats.per_thread_busy_us.begin(),
                        stats.per_thread_busy_us.end(), 0.0);
    EXPECT_NEAR(per_thread_sum, stats.busy_us, 1e-9 * stats.busy_us + 1e-6)
        << "threads " << threads;
    EXPECT_GT(stats.busy_us, 0.0);
    EXPECT_GT(stats.ParallelEfficiency(), 0.0) << "threads " << threads;
    EXPECT_LE(stats.ParallelEfficiency(), 1.0) << "threads " << threads;
  }
}

TEST(ThreadPool, ManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  constexpr std::size_t kCount = 10000;
  std::vector<std::uint8_t> hit(kCount, 0);
  pool.ParallelFor(kCount, [&](std::size_t i) { hit[i] = 1; });
  const auto total = std::accumulate(hit.begin(), hit.end(), std::size_t{0});
  EXPECT_EQ(total, kCount);
}

}  // namespace
}  // namespace gl
