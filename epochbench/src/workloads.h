// The benchmark's workloads: scenarios, topology and runner options for one
// Goldilocks configuration, all derived from the benchmark seed.
//
//   msr_fig13   — the Fig. 13 setup: 49,392 MSR containers on a 28-ary fat
//                 tree, a fresh multi-threaded partition every epoch, under
//                 several partitioner seeds.
//   azure_churn — the Fig. 10 Azure mix on the 16-server testbed over many
//                 derived seeds: thousands of sub-millisecond epochs with
//                 container start/stop churn.
//   vc_reuse    — 4,096 MSR containers on a degraded, heterogeneous 16-ary
//                 fat tree through the Virtual Cluster placer, with grouping
//                 reuse and incremental repair instead of fresh partitions.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/goldilocks.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace epochbench {

inline constexpr std::string_view kWorkloadNames[] = {
    "msr_fig13", "azure_churn", "vc_reuse"};

// One scenario of a workload, the Goldilocks configuration that schedules
// it, and the runner that replays it.
struct Instance {
  std::shared_ptr<const gl::Scenario> scenario;
  gl::GoldilocksOptions goldilocks;
  std::unique_ptr<gl::ExperimentRunner> runner;
};

struct Workload {
  std::unique_ptr<gl::Topology> topology;
  // Runner options with every model set explicitly, so a loop outside the
  // runner can evaluate an epoch exactly as ExperimentRunner::Run does.
  gl::RunnerOptions runner_options;
  std::vector<Instance> instances;  // runners reference scenario + topology
};

bool IsWorkloadName(std::string_view name);

// Builds `name` from the benchmark seed. `partition_threads` applies to
// msr_fig13 only; the other workloads partition single-threaded.
std::unique_ptr<Workload> BuildWorkload(std::string_view name,
                                        std::uint64_t seed,
                                        int partition_threads);

// Deterministic seed derivation (SplitMix64 finalizer).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace epochbench
