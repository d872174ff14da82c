// Tests for the determinism subsystem (DESIGN.md §8): the FNV state hasher,
// the stable-iteration adapters, the shared epsilon helpers, and the golden
// seed-replay guarantee — every scheduler, run twice from the same seed, must
// produce bit-identical per-epoch state-hash streams.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/resource.h"
#include "common/rng.h"
#include "common/stable_map.h"
#include "common/state_hash.h"
#include "core/epoch_controller.h"
#include "core/goldilocks.h"
#include "core/scheduler_factory.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

// --- StateHasher --------------------------------------------------------------

TEST(StateHasher, EmptyDigestIsFnvOffsetBasis) {
  StateHasher h;
  EXPECT_EQ(h.digest(), 0xcbf29ce484222325ULL);
}

TEST(StateHasher, MatchesKnownFnv1aVector) {
  // FNV-1a of the byte 0x61 ('a'), fed through MixU64's little-endian byte
  // stream: only the low byte is 'a', the remaining seven are zero.
  StateHasher h;
  h.MixU64(0x61);
  std::uint64_t expect = 0xcbf29ce484222325ULL;
  std::uint64_t v = 0x61;
  for (int i = 0; i < 8; ++i) {
    expect = (expect ^ (v & 0xff)) * 0x100000001b3ULL;
    v >>= 8;
  }
  EXPECT_EQ(h.digest(), expect);
}

TEST(StateHasher, OrderSensitive) {
  StateHasher ab, ba;
  ab.MixU64(1);
  ab.MixU64(2);
  ba.MixU64(2);
  ba.MixU64(1);
  EXPECT_NE(ab.digest(), ba.digest());
}

TEST(StateHasher, NegativeZeroCanonicalized) {
  StateHasher pos, neg;
  pos.MixDouble(0.0);
  neg.MixDouble(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
  StateHasher one;
  one.MixDouble(1.0);
  EXPECT_NE(pos.digest(), one.digest());
}

TEST(StateHasher, PlacementHashSensitivity) {
  const std::vector<ServerId> a = {ServerId(0), ServerId(1), ServerId(2)};
  std::vector<ServerId> b = a;
  EXPECT_EQ(HashAssignment(a), HashAssignment(b));
  b[1] = ServerId(7);
  EXPECT_NE(HashAssignment(a), HashAssignment(b));
  // A container parked on an invalid server still contributes.
  std::vector<ServerId> c = a;
  c[2] = ServerId();
  EXPECT_NE(HashAssignment(a), HashAssignment(c));
}

TEST(StateHasher, RngStateHashTracksDraws) {
  Rng a(42), b(42);
  EXPECT_EQ(a.StateHash(), b.StateHash());
  (void)a.NextDouble();
  EXPECT_NE(a.StateHash(), b.StateHash());
  (void)b.NextDouble();
  EXPECT_EQ(a.StateHash(), b.StateHash());
}

TEST(StateHasher, FirstDivergentSubsystemOrdering) {
  EpochStateHash a;
  a.epoch = 3;
  a.placement = 1;
  a.loads = 2;
  a.power = 3;
  a.migration = 4;
  a.rng = 5;
  EpochStateHash b = a;
  EXPECT_EQ(FirstDivergentSubsystem(a, b), nullptr);
  b.rng = 99;
  EXPECT_STREQ(FirstDivergentSubsystem(a, b), "rng");
  b.placement = 98;  // placement outranks rng in the report
  EXPECT_STREQ(FirstDivergentSubsystem(a, b), "placement");
  b = a;
  b.epoch = 4;
  EXPECT_STREQ(FirstDivergentSubsystem(a, b), "epoch");
}

// --- stable iteration adapters ------------------------------------------------

TEST(StableMap, SortedItemsYieldsKeyOrder) {
  std::unordered_map<int, double> m = {{7, 0.7}, {1, 0.1}, {3, 0.3}};
  const auto items = SortedItems(m);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, 1);
  EXPECT_EQ(items[1].first, 3);
  EXPECT_EQ(items[2].first, 7);
  EXPECT_DOUBLE_EQ(items[2].second, 0.7);
}

TEST(StableMap, SortedKeysWorksForSetsAndMaps) {
  std::unordered_set<int> s = {5, 2, 9};
  EXPECT_EQ(SortedKeys(s), (std::vector<int>{2, 5, 9}));
  std::unordered_map<int, int> m = {{4, 0}, {0, 0}};
  EXPECT_EQ(SortedKeys(m), (std::vector<int>{0, 4}));
}

TEST(StableMap, ValueOrLooksUpSortedItems) {
  std::unordered_map<int, double> m = {{2, 2.5}, {8, 8.5}};
  const auto items = SortedItems(m);
  EXPECT_DOUBLE_EQ(ValueOr(items, 2, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(ValueOr(items, 5, -1.0), -1.0);
}

// --- shared epsilon helpers ---------------------------------------------------

TEST(ResourceEps, WithinCapToleratesAccumulationNoise) {
  EXPECT_TRUE(WithinCap(1.0, 1.0));
  EXPECT_TRUE(WithinCap(1.0 + 0.5 * kResourceEps, 1.0));
  EXPECT_FALSE(WithinCap(1.01, 1.0));
  // FitsIn routes through the shared helper.
  const Resource cap{.cpu = 100, .mem_gb = 10, .net_mbps = 1000};
  Resource use = cap;
  use.cpu += 20 * kResourceEps;  // below the relative tolerance at cpu=100
  EXPECT_TRUE(use.FitsIn(cap));
  use.cpu = 101;
  EXPECT_FALSE(use.FitsIn(cap));
}

TEST(ResourceEps, ApproxEqIsSymmetricAndScaled) {
  EXPECT_TRUE(ApproxEq(0.0, 0.0));
  EXPECT_TRUE(ApproxEq(1e9, 1e9 * (1.0 + 0.5 * kResourceEps)));
  EXPECT_FALSE(ApproxEq(1.0, 1.1));
  EXPECT_TRUE(ApproxEq(-3.0, -3.0));
}

// --- golden seed replay -------------------------------------------------------

ExperimentResult RunRecorded(Scheduler& scheduler, const Scenario& scenario,
                             const Topology& topo) {
  RunnerOptions opts;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(scenario, topo, opts);
  return runner.Run(scheduler);
}

std::vector<EpochStateHash> RunHashed(const std::string& name,
                                      const Scenario& scenario,
                                      const Topology& topo) {
  auto scheduler = MakeNamedScheduler(name, 0.70, 0xfeed);
  return RunRecorded(*scheduler, scenario, topo).state_hashes;
}

TEST(SeedReplay, AllSchedulersBitIdenticalAcrossRuns) {
  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 8;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  for (const auto& name : NamedSchedulers()) {
    SCOPED_TRACE(name);
    const auto first = RunHashed(name, *scenario, topo);
    const auto second = RunHashed(name, *scenario, topo);
    ASSERT_EQ(first.size(), second.size());
    ASSERT_EQ(first.size(), 8u);
    for (std::size_t e = 0; e < first.size(); ++e) {
      EXPECT_EQ(FirstDivergentSubsystem(first[e], second[e]), nullptr)
          << "epoch " << e << ": " << first[e].ToString() << " vs "
          << second[e].ToString();
    }
  }
}

TEST(SeedReplay, DifferentSeedsDivergeForRandomScheduler) {
  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 4;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  RunnerOptions opts;
  opts.record_state_hashes = true;
  const ExperimentRunner runner(*scenario, topo, opts);
  auto a = MakeNamedScheduler("random", 0.70, 1);
  auto b = MakeNamedScheduler("random", 0.70, 2);
  const auto ha = runner.Run(*a).state_hashes;
  const auto hb = runner.Run(*b).state_hashes;
  ASSERT_EQ(ha.size(), hb.size());
  bool any_diff = false;
  for (std::size_t e = 0; e < ha.size(); ++e) {
    any_diff = any_diff || FirstDivergentSubsystem(ha[e], hb[e]) != nullptr;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SeedReplay, EpochControllerStreamsMatch) {
  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 6;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  auto run = [&] {
    EpochController ctl(MakeNamedScheduler("goldilocks"), topo);
    ctl.EnableStateHash();
    for (int e = 0; e < scenario->num_epochs(); ++e) {
      (void)ctl.Step(scenario->workload(), scenario->DemandsAt(e),
                     scenario->ActiveAt(e));
    }
    return ctl.state_hashes();
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), 6u);
  ASSERT_EQ(second.size(), 6u);
  for (std::size_t e = 0; e < first.size(); ++e) {
    EXPECT_EQ(FirstDivergentSubsystem(first[e], second[e]), nullptr)
        << first[e].ToString() << " vs " << second[e].ToString();
  }
  // The stream is not degenerate: successive epochs hash differently.
  EXPECT_NE(first[0].Combined(), first[1].Combined());
}

// Goldilocks' per-epoch Combined() digests on Testbed16, 12 epochs, seed
// 0xfeed, recorded at commit 2e5837c (`gl_replay --verbose --epochs=12
// --scheduler=goldilocks`). Partitioner speedups must leave placements
// bit-identical; a change that moves them re-blesses these (DESIGN.md §11).
constexpr std::uint64_t kGoldilocksAzureDigests[] = {
    0x669b7e299225f75dull, 0x4503d0d0ac9d91e5ull, 0xb12c8fc84df4faafull,
    0x8555c79da1979331ull, 0x1b7a629bb4554552ull, 0x9b8a8586b3123496ull,
    0xef6bd33474950894ull, 0x4e510dd599403b6eull, 0xcfca81cad2e34eedull,
    0xeebc8b6f11019547ull, 0x8a2c4889963efe6cull, 0x4b3598b1d88ac06aull,
};
constexpr std::uint64_t kGoldilocksTwitterDigests[] = {
    0x709f97279e414969ull, 0x9a8fafc8fa488c7full, 0x40faf74f820c4648ull,
    0xe02905590893c8b1ull, 0xdcfa2fc7c94cf636ull, 0x0c4aae5a72d77a74ull,
    0xcf5a98b1530b586full, 0xd8caff336e2bb949ull, 0x3fb86aff40c1d5fcull,
    0xc5b2f8d478ac8f66ull, 0x6d65284de8b19ae6ull, 0x4768cec20766a49full,
};

void ExpectPinnedDigests(const Scenario& scenario,
                         std::span<const std::uint64_t> pinned) {
  const auto hashes =
      RunHashed("goldilocks", scenario, Topology::Testbed16());
  ASSERT_EQ(hashes.size(), pinned.size());
  for (std::size_t e = 0; e < hashes.size(); ++e) {
    EXPECT_EQ(hashes[e].Combined(), pinned[e]) << hashes[e].ToString();
  }
}

TEST(SeedReplay, GoldilocksAzureMixMatchesPinnedDigests) {
  AzureScenarioOptions sopts;
  sopts.num_epochs = 12;
  ExpectPinnedDigests(*MakeAzureMixScenario(sopts), kGoldilocksAzureDigests);
}

TEST(SeedReplay, GoldilocksTwitterMatchesPinnedDigests) {
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 12;
  ExpectPinnedDigests(*MakeTwitterCachingScenario(sopts),
                      kGoldilocksTwitterDigests);
}

// A reduced vc_reuse shape (epochbench): MSR containers on an 8-ary fat
// tree of R940-class servers, every 4th server half-size, every 4th pod
// uplink at 25%, placed by the Virtual Cluster placer with incremental
// repair every 4th epoch.
Topology VcReuseTopology() {
  const Resource r940{.cpu = 7200, .mem_gb = 1536, .net_mbps = 10000};
  Topology topo = Topology::FatTree(8, r940, 10000.0);
  for (int s = 0; s < topo.num_servers(); s += 4) {
    topo.set_server_capacity(ServerId{s}, r940 * 0.5);
  }
  const auto pods = topo.NodesAtLevel(2);
  for (std::size_t p = 0; p < pods.size(); p += 4) {
    topo.DegradeUplink(pods[p], 0.25);
  }
  return topo;
}

ExperimentResult RunVcReuse() {
  MsrScenarioOptions sopts;
  sopts.per_vertex = 4;
  sopts.trace_vertices = 128;
  sopts.num_epochs = 12;
  sopts.epoch_minutes = 120.0;
  const auto scenario = MakeMsrLargeScaleScenario(sopts);
  GoldilocksOptions gopts;
  gopts.use_virtual_clusters = true;
  gopts.incremental_repartition = true;
  gopts.repartition_interval = 4;
  GoldilocksScheduler scheduler(gopts);
  return RunRecorded(scheduler, *scenario, VcReuseTopology());
}

// Per-epoch Combined() digests of RunVcReuse, recorded at commit 10ec97e.
constexpr std::uint64_t kGoldilocksVcReuseDigests[] = {
    0x3b6d5af30ab119c3ull, 0x7a28975667537f13ull, 0x609c2fca19e07385ull,
    0x856c2f6e57c5f5aaull, 0xf85fee9fe3e2b035ull, 0xfc98dd7c9e7b3e4cull,
    0x8b5d1982f48d717dull, 0xfadb6623313fdb32ull, 0xcc6a5ac9faddd0aeull,
    0x91cf0f500b14b17full, 0x66116285d009ab94ull, 0xfc8692d4f704d13cull,
};

TEST(SeedReplay, GoldilocksVcReuseMatchesPinnedDigests) {
  const auto hashes = RunVcReuse().state_hashes;
  ASSERT_EQ(hashes.size(), std::size(kGoldilocksVcReuseDigests));
  for (std::size_t e = 0; e < hashes.size(); ++e) {
    EXPECT_EQ(hashes[e].Combined(), kGoldilocksVcReuseDigests[e])
        << "epoch " << e << ": 0x" << std::hex << hashes[e].Combined();
  }
}

// EpochStateHash covers placements, loads, power and migrations but not the
// latency model, so the TCT outputs are pinned bit for bit on their own:
// {mean_tct_ms, p99_tct_ms, sla_violation_rate, network_watts} per epoch,
// recorded at commit 10ec97e.
using MetricBits = std::array<std::uint64_t, 4>;

void ExpectPinnedMetricBits(const ExperimentResult& result,
                            std::span<const MetricBits> pinned) {
  ASSERT_EQ(result.epochs.size(), pinned.size());
  for (std::size_t e = 0; e < pinned.size(); ++e) {
    const EpochMetrics& m = result.epochs[e];
    const MetricBits bits = {std::bit_cast<std::uint64_t>(m.mean_tct_ms),
                             std::bit_cast<std::uint64_t>(m.p99_tct_ms),
                             std::bit_cast<std::uint64_t>(m.sla_violation_rate),
                             std::bit_cast<std::uint64_t>(m.network_watts)};
    EXPECT_EQ(bits, pinned[e])
        << "epoch " << e << std::hex << ": {0x" << bits[0] << ", 0x"
        << bits[1] << ", 0x" << bits[2] << ", 0x" << bits[3] << "}";
  }
}

constexpr MetricBits kVcReuseTctBits[] = {
    {0x404b884daa3ec479ull, 0x404d8747e1691ba3ull,
     0x3ff0000000000000ull, 0x4091500000000000ull},
    {0x404bdd13648cbfc1ull, 0x404df4503d973fbcull,
     0x3fefeacba6c3b322ull, 0x4091200000000000ull},
    {0x404bb5110e832217ull, 0x404de0c177de7f1dull,
     0x3ff0000000000000ull, 0x4091200000000000ull},
    {0x404baa47048e2311ull, 0x404ddef3bbea35f6ull,
     0x3ff0000000000000ull, 0x4091500000000000ull},
    {0x404badb7c4d8c778ull, 0x404dc7bdbac6edb5ull,
     0x3fef95fa41d27fabull, 0x4096200000000000ull},
    {0x404c4ede2b8e6928ull, 0x404eae2240d6c837ull,
     0x3fefdca8c09b7fe4ull, 0x4098d00000000000ull},
    {0x404c2be2da2b7265ull, 0x404ec90d49f62e58ull,
     0x3feff8ee8cebe661ull, 0x409b200000000000ull},
    {0x404c2d2bc86bbaacull, 0x404ec1ed10f31885ull,
     0x3feff8ee8cebe661ull, 0x4098a00000000000ull},
    {0x404ba798891199deull, 0x404ebf345436de91ull,
     0x3fefce85da734ca5ull, 0x4096800000000000ull},
    {0x404b733b6de55e6aull, 0x404e35314317038full,
     0x3fefab2e9b0ecc89ull, 0x4098d00000000000ull},
    {0x404ae7f04eecb025ull, 0x404e8872b793fc0full,
     0x3fef80c5e89632cdull, 0x4098a00000000000ull},
    {0x404b930b41e57a1dull, 0x404ebed362664bcfull,
     0x3fefc062f44b1967ull, 0x4096800000000000ull},
};
constexpr MetricBits kAzureTctBits[] = {
    {0x3ff41a48e829ad46ull, 0x3ffd913aafd30ff0ull,
     0x0ull, 0x4091200000000000ull},
    {0x3ff04501f5cfe980ull, 0x3ff1aa8e36e39bdcull,
     0x0ull, 0x4091200000000000ull},
    {0x3fecd7dec8343876ull, 0x3ff3121ad125be67ull,
     0x0ull, 0x4094000000000000ull},
    {0x3ff1960fb1b38834ull, 0x3ff274150e779b22ull,
     0x0ull, 0x4091200000000000ull},
    {0x3fefdc68c3fe024full, 0x3ff27efd1e19f650ull,
     0x0ull, 0x4091800000000000ull},
    {0x3ff0efbf359b9dc9ull, 0x3ff41ba96e9ce728ull,
     0x0ull, 0x4093a00000000000ull},
    {0x3fedaddccc80ed8aull, 0x3ff2d261cdc7bf87ull,
     0x0ull, 0x4096800000000000ull},
    {0x3ff3639562d1ebe8ull, 0x400038acb103ac35ull,
     0x0ull, 0x4096800000000000ull},
    {0x3fef47bdd303a16full, 0x3ff371092498fe1eull,
     0x0ull, 0x4096800000000000ull},
    {0x3ff1a5b0ad2430a9ull, 0x3ffc3da628bdde54ull,
     0x0ull, 0x4096200000000000ull},
    {0x3fefb87f6174aecbull, 0x3ff228648e82bb8full,
     0x0ull, 0x4096200000000000ull},
    {0x3ff0a36c58f31b03ull, 0x3ff84fdd7b7c8bb2ull,
     0x0ull, 0x4094000000000000ull},
};

TEST(SeedReplay, GoldilocksVcReuseTctMatchesPinnedBits) {
  ExpectPinnedMetricBits(RunVcReuse(), kVcReuseTctBits);
}

TEST(SeedReplay, GoldilocksAzureMixTctMatchesPinnedBits) {
  AzureScenarioOptions sopts;
  sopts.num_epochs = 12;
  auto scheduler = MakeNamedScheduler("goldilocks", 0.70, 0xfeed);
  ExpectPinnedMetricBits(
      RunRecorded(*scheduler, *MakeAzureMixScenario(sopts),
                  Topology::Testbed16()),
      kAzureTctBits);
}

TEST(SeedReplay, HashesOffByDefault) {
  const Topology topo = Topology::Testbed16();
  TwitterScenarioOptions sopts;
  sopts.num_epochs = 2;
  const auto scenario = MakeTwitterCachingScenario(sopts);
  const ExperimentRunner runner(*scenario, topo, RunnerOptions{});
  auto scheduler = MakeNamedScheduler("mpp");
  EXPECT_TRUE(runner.Run(*scheduler).state_hashes.empty());
}

}  // namespace
}  // namespace gl
