#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "power/dc_power.h"
#include "power/server_power.h"

namespace epochbench {
namespace {

// msr_fig13: partitioner seeds, each scheduling two epochs at the Fig. 13
// bench's 4-hour sampling. The partition work varies by about ±5% from one
// seed to the next, so each run averages several.
constexpr int kMsrPartitionSeeds = 8;
constexpr int kMsrEpochs = 2;
constexpr double kMsrEpochMinutes = 240.0;
// azure_churn: derived scenario seeds, each the 60-epoch Fig. 10 hour.
constexpr int kAzureSeeds = 40;
// vc_reuse: derived scenario seeds of 44 two-hour epochs (88 hours).
constexpr int kVcSeeds = 32;
constexpr int kVcEpochs = 44;
constexpr double kVcEpochMinutes = 120.0;

// Dell R940-class servers (72 cores, 1.5 TB, 10G NIC), as in Fig. 13.
constexpr gl::Resource kR940{.cpu = 7200, .mem_gb = 1536, .net_mbps = 10000};

// Fig. 13 runner options: R940 / Altoline 6940 power and millisecond-scale
// per-hop latency (bench_fig13_large_scale).
gl::RunnerOptions LargeScaleRunnerOptions(const gl::Topology& topo) {
  gl::RunnerOptions opts;
  opts.server_power = gl::ServerPowerModel::DellR940();
  opts.switch_models.assign(static_cast<std::size_t>(topo.num_levels()),
                            gl::SwitchPowerModel::Altoline6940());
  opts.latency.per_hop_ms = 2.0;
  opts.latency.burst_amplification = 0.05;
  opts.latency.sla_ms = 100.0;
  return opts;
}

void AddInstance(Workload& w, std::shared_ptr<const gl::Scenario> scenario,
                 const gl::GoldilocksOptions& goldilocks) {
  Instance inst;
  inst.scenario = std::move(scenario);
  inst.goldilocks = goldilocks;
  inst.runner = std::make_unique<gl::ExperimentRunner>(
      *inst.scenario, *w.topology, w.runner_options);
  w.instances.push_back(std::move(inst));
}

std::unique_ptr<Workload> BuildMsrFig13(std::uint64_t seed, int threads) {
  auto w = std::make_unique<Workload>();
  w->topology = std::make_unique<gl::Topology>(
      gl::Topology::FatTree(28, kR940, 10000.0));
  w->runner_options = LargeScaleRunnerOptions(*w->topology);
  // The Fig. 13 MSR scenario is one fixed trace, as in the paper and
  // bench_fig13_large_scale: its correlated-burst process moves mean power
  // and active servers by about ±20% from one trace seed to the next over a
  // few epochs, so the benchmark seed drives the partitioner seeds instead.
  gl::MsrScenarioOptions sopts;
  sopts.num_epochs = kMsrEpochs;
  sopts.epoch_minutes = kMsrEpochMinutes;
  const std::shared_ptr<const gl::Scenario> scenario =
      gl::MakeMsrLargeScaleScenario(sopts);
  gl::GoldilocksOptions gopts;
  gopts.repartition_interval = 1;
  gopts.partition.threads = threads;
  for (int i = 0; i < kMsrPartitionSeeds; ++i) {
    gopts.partition.seed =
        DeriveSeed(seed, 0x1300 + static_cast<std::uint64_t>(i));
    AddInstance(*w, scenario, gopts);
  }
  return w;
}

std::unique_ptr<Workload> BuildAzureChurn(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->topology =
      std::make_unique<gl::Topology>(gl::Topology::Testbed16());
  w->runner_options.switch_models.assign(
      static_cast<std::size_t>(w->topology->num_levels()),
      gl::SwitchPowerModel::Hpe3800());
  gl::GoldilocksOptions gopts;
  gopts.repartition_interval = 1;
  for (int i = 0; i < kAzureSeeds; ++i) {
    gl::AzureScenarioOptions sopts;
    sopts.seed = DeriveSeed(seed, 0xa2000 + static_cast<std::uint64_t>(i));
    AddInstance(*w, gl::MakeAzureMixScenario(sopts), gopts);
  }
  return w;
}

std::unique_ptr<Workload> BuildVcReuse(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  auto topo =
      std::make_unique<gl::Topology>(gl::Topology::FatTree(16, kR940, 10000.0));
  // Legacy half-size machines and failed pod uplinks: the Sec. IV
  // asymmetries the Virtual Cluster placer exists for.
  for (int s = 0; s < topo->num_servers(); s += 4) {
    topo->set_server_capacity(gl::ServerId{s}, kR940 * 0.5);
  }
  const auto pods = topo->NodesAtLevel(2);
  for (std::size_t p = 0; p < pods.size(); p += 4) {
    topo->DegradeUplink(pods[p], 0.25);
  }
  w->topology = std::move(topo);
  w->runner_options = LargeScaleRunnerOptions(*w->topology);
  gl::GoldilocksOptions gopts;
  gopts.use_virtual_clusters = true;
  gopts.incremental_repartition = true;
  gopts.repartition_interval = 4;
  for (int i = 0; i < kVcSeeds; ++i) {
    gl::MsrScenarioOptions sopts;
    sopts.per_vertex = 4;
    sopts.trace_vertices = 1024;
    sopts.num_epochs = kVcEpochs;
    sopts.epoch_minutes = kVcEpochMinutes;
    sopts.seed = DeriveSeed(seed, 0xc000 + static_cast<std::uint64_t>(i));
    AddInstance(*w, gl::MakeMsrLargeScaleScenario(sopts), gopts);
  }
  return w;
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool IsWorkloadName(std::string_view name) {
  return std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                   name) != std::end(kWorkloadNames);
}

std::unique_ptr<Workload> BuildWorkload(std::string_view name,
                                        std::uint64_t seed,
                                        int partition_threads) {
  if (name == "msr_fig13") return BuildMsrFig13(seed, partition_threads);
  if (name == "azure_churn") return BuildAzureChurn(seed);
  if (name == "vc_reuse") return BuildVcReuse(seed);
  throw std::invalid_argument("unknown workload " + std::string(name));
}

}  // namespace epochbench
