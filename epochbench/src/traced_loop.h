// The traced epoch loop.
//
// RunTraced replays one scenario the way ExperimentRunner::Run does, but
// from the benchmark's own code, so every call into a module's public
// functions can be timed from outside with no tracing inside src/. Around
// each Place() it also calls BuildContainerGraph and the partitioner itself
// on the same epoch inputs (the graph replica), which attributes part of the
// scheduler's time to the graph layer, and it audits every epoch. Those
// attribution and audit calls are excluded from the traced epoch time.
//
// The loop's EpochMetrics must equal the runner's field for field
// (CompareEpochs), which proves it does the same work.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/goldilocks.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace epochbench {

// Module calls timed by the traced loop. kGraphBuild and kPartition are the
// replica calls and nest inside kPlace; the others are top-level spans of
// the epoch.
enum Layer : int {
  kEpochInputs,   // Scenario::DemandsAt + ActiveAt
  kPlace,         // Scheduler::Place
  kGraphBuild,    // BuildContainerGraph (replica)
  kPartition,     // RecursivePartition / IncrementalRepartition (replica)
  kServerLoads,   // ServerLoads
  kTraffic,       // EstimateTraffic
  kNetworkPower,  // ComputeNetworkPower
  kTctModel,      // LatencyModel::ComputeTct
  kMigration,     // ComputeMigrationCost
  kLayerCount,
};

// Metric-name stem of each layer ("<stem>_ms", "<stem>_share").
inline constexpr std::array<std::string_view, kLayerCount> kLayerStems = {
    "workload.epoch_inputs", "core.place",       "core.graph_build",
    "graph.partition",       "schedulers.server_loads", "netsim.traffic",
    "power.network",         "sim.tct_model",    "sim.migration"};

struct LayerTimes {
  std::vector<double> samples_ms;  // one per epoch in which the layer ran
  double total_ms = 0.0;
};

// Counts over a run: program counters read as deltas around the calls, and
// properties of the replica's results.
struct RunCounts {
  std::uint64_t partition_cache_hits = 0;
  std::uint64_t pee_cap_rejections = 0;
  std::uint64_t vc_groups_split = 0;
  std::uint64_t vc_bandwidth_violations = 0;
  std::uint64_t cut_edges_evaluated = 0;
  std::uint64_t bisection_rejections = 0;
  std::uint64_t switches_gated = 0;
  int repartitions = 0;
  int repairs = 0;  // repartitions that took the incremental path
  std::int64_t groups = 0;
  double cut_weight = 0.0;
  int audits = 0;
  // Auditor capacity errors that exceed only the NIC when every container's
  // full NIC demand is charged to its server; re-checked against the
  // traffic model (see AuditEpoch in traced_loop.cc).
  int nic_raw_sum_findings = 0;

  RunCounts& operator+=(const RunCounts& o);
};

struct TracedRun {
  // Filled exactly as ExperimentRunner::Run fills them (wall_ms = traced
  // epoch time).
  std::vector<gl::EpochMetrics> epochs;
  std::array<LayerTimes, kLayerCount> layers;
  // Place() minus the replica graph-build and partition calls, per epoch.
  std::vector<double> place_self_ms;
  // Traced epoch time not covered by a top-level layer span, per epoch.
  std::vector<double> unattributed_ms;

  RunCounts counts;

  // partition.pool.* gauges after each replica partition that published
  // them (only a multi-threaded partitioner does).
  std::vector<double> pool_busy_ms;
  std::vector<double> pool_queue_wait_ms;
  std::vector<double> pool_efficiency;

  std::vector<std::string> failures;  // failed output checks, one per line
};

// Replays `instance` with a fresh GoldilocksScheduler built from `options`.
TracedRun RunTraced(const Workload& workload, const Instance& instance,
                    const gl::GoldilocksOptions& options);

// Differences between two per-epoch metric streams in every simulated field
// (power, TCT, migrations, active servers, placement counts); empty when
// they are bit-identical.
std::vector<std::string> CompareEpochs(
    std::span<const gl::EpochMetrics> reference,
    std::span<const gl::EpochMetrics> candidate);

}  // namespace epochbench
