#include "traced_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/invariant_auditor.h"
#include "core/graph_builder.h"
#include "graph/incremental.h"
#include "graph/partitioner.h"
#include "netsim/traffic.h"
#include "obs/metrics.h"
#include "power/dc_power.h"
#include "schedulers/placement.h"
#include "sim/latency.h"
#include "sim/migration.h"

namespace epochbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Network-dimension relaxation of Goldilocks' partition fit predicate
// (kPartitionNetRelax in core/goldilocks.cc). If the two drift apart the
// replica's group count stops matching last_num_groups() and the run fails.
constexpr double kPartitionNetRelax = 8.0;

gl::obs::Counter& ProgramCounter(const char* name) {
  return gl::obs::MetricsRegistry::Global().GetCounter(
      name, gl::obs::MetricKind::kDeterministic);
}

gl::obs::Gauge& ProgramGauge(const char* name) {
  return gl::obs::MetricsRegistry::Global().GetGauge(
      name, gl::obs::MetricKind::kInformational);
}

// The program counters the loop reads, as one snapshot.
struct Counters {
  std::uint64_t cache_hits = 0;
  std::uint64_t pee_cap_rejections = 0;
  std::uint64_t refine_bisections = 0;
  std::uint64_t sibling_merges = 0;
  std::uint64_t vc_groups_split = 0;
  std::uint64_t vc_bandwidth_violations = 0;
  std::uint64_t cut_edges_evaluated = 0;
  std::uint64_t bisection_rejections = 0;
  std::uint64_t switches_gated = 0;

  static Counters Read() {
    static gl::obs::Counter& hits =
        ProgramCounter("goldilocks.partition_cache_hits");
    static gl::obs::Counter& pee =
        ProgramCounter("goldilocks.pee_cap_rejections");
    static gl::obs::Counter& refine =
        ProgramCounter("goldilocks.refine_bisections");
    static gl::obs::Counter& merges =
        ProgramCounter("goldilocks.sibling_merges");
    static gl::obs::Counter& split = ProgramCounter("vc.groups_split");
    static gl::obs::Counter& bw = ProgramCounter("vc.bandwidth_violations");
    static gl::obs::Counter& cut =
        ProgramCounter("partition.cut_edges_evaluated");
    static gl::obs::Counter& rejections =
        ProgramCounter("partition.bisection_rejections");
    static gl::obs::Counter& gated = ProgramCounter("power.switches_gated");
    return Counters{.cache_hits = hits.value(),
                    .pee_cap_rejections = pee.value(),
                    .refine_bisections = refine.value(),
                    .sibling_merges = merges.value(),
                    .vc_groups_split = split.value(),
                    .vc_bandwidth_violations = bw.value(),
                    .cut_edges_evaluated = cut.value(),
                    .bisection_rejections = rejections.value(),
                    .switches_gated = gated.value()};
  }
};

// The partitioner's pool gauges. The replica sets them to NaN before its
// partition call, so a value read afterwards was published by that call.
struct PoolGauges {
  gl::obs::Gauge& busy = ProgramGauge("partition.pool.busy_ms");
  gl::obs::Gauge& wait = ProgramGauge("partition.pool.queue_wait_ms");
  gl::obs::Gauge& efficiency =
      ProgramGauge("partition.pool.parallel_efficiency");

  void Clear() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    busy.Set(nan);
    wait.Set(nan);
    efficiency.Set(nan);
  }
};

// What the replica partition produced on one repartition epoch.
struct ReplicaPartition {
  int groups = 0;
  double cut_weight = 0.0;
  std::uint64_t fit_rejections = 0;
};

// Goldilocks' partition inputs, rebuilt from its public options: groups are
// sized against the PEE ceiling × (1 − group_headroom) of the average
// server, with the network dimension relaxed.
ReplicaPartition PartitionReplica(const gl::Graph& graph,
                                  const gl::Topology& topo,
                                  const gl::GoldilocksOptions& o,
                                  const std::vector<int>* previous_groups) {
  const gl::Resource avg = topo.average_server_capacity();
  const gl::Resource ceiling{.cpu = avg.cpu * o.pee_utilization,
                             .mem_gb = avg.mem_gb * o.memory_ceiling,
                             .net_mbps = avg.net_mbps * o.pee_utilization};
  gl::Resource relaxed = ceiling * (1.0 - o.group_headroom);
  relaxed.net_mbps *= kPartitionNetRelax;
  // Called from partitioner worker threads when threads > 1.
  std::atomic<std::uint64_t> rejections{0};
  const auto fits = [&](const gl::Resource& demand, int /*count*/) {
    const bool ok = demand.FitsIn(relaxed);
    if (!ok) rejections.fetch_add(1, std::memory_order_relaxed);
    return ok;
  };
  ReplicaPartition out;
  if (previous_groups != nullptr) {
    gl::IncrementalOptions iopts;
    iopts.partition = o.partition;
    const auto r =
        gl::IncrementalRepartition(graph, *previous_groups, fits, iopts);
    out.groups = r.num_groups;
    out.cut_weight = r.cut_weight;
  } else {
    const auto units = [&relaxed](const gl::Resource& d) {
      double u = 0.0;
      if (relaxed.cpu > 0) u = std::max(u, d.cpu / relaxed.cpu);
      if (relaxed.mem_gb > 0) u = std::max(u, d.mem_gb / relaxed.mem_gb);
      if (relaxed.net_mbps > 0) u = std::max(u, d.net_mbps / relaxed.net_mbps);
      return u;
    };
    const auto r = gl::RecursivePartition(graph, fits, o.partition, units);
    out.groups = r.num_groups;
    out.cut_weight = r.cut_weight;
  }
  out.fit_rejections = rejections.load();
  return out;
}

// True when server `id` exists and its CPU and memory loads fit its
// capacity, i.e. a capacity finding on it concerns the NIC alone.
bool CpuAndMemoryFit(std::span<const gl::Resource> loads,
                     const gl::Topology& topo, std::int32_t id) {
  if (id < 0 || id >= topo.num_servers()) return false;
  gl::Resource cpu_mem = loads[static_cast<std::size_t>(id)];
  cpu_mem.net_mbps = 0.0;
  return cpu_mem.FitsIn(topo.server_capacity(gl::ServerId{id}));
}

// Audits one epoch. Every error finding fails the run, with one exception:
// the auditor charges each server the full NIC demand of every container on
// it, while the scheduler and the traffic model (netsim/traffic.h) keep
// colocated traffic on the host. A capacity finding that exceeds only the
// NIC under that raw sum is therefore counted, and the server's NIC is
// checked against the traffic model's uplink load instead. CPU and memory
// are checked on every server, beyond the auditor's per-class finding cap.
void AuditEpoch(const gl::InvariantAuditor& auditor,
                const gl::SystemView& view,
                std::span<const gl::Resource> loads,
                const gl::TrafficEstimate& traffic, int epoch,
                TracedRun& run) {
  const gl::Topology& topo = *view.topology;
  const gl::AuditReport report = auditor.AuditAll(view);
  ++run.counts.audits;
  const auto fail = [&](const std::string& what) {
    run.failures.push_back("epoch " + std::to_string(epoch) + ": " + what);
  };
  for (const auto& f : report.findings) {
    if (f.severity != gl::AuditSeverity::kError) continue;
    if (f.invariant == gl::AuditClass::kCapacity &&
        f.offending_ids.size() == 1 &&
        CpuAndMemoryFit(loads, topo, f.offending_ids[0])) {
      ++run.counts.nic_raw_sum_findings;
    } else {
      fail(std::string("audit error [") + gl::AuditClassName(f.invariant) +
           "/" + f.subsystem + "] " + f.message);
    }
  }
  for (int s = 0; s < topo.num_servers(); ++s) {
    const gl::Resource& cap = topo.server_capacity(gl::ServerId{s});
    const gl::Resource& load = loads[static_cast<std::size_t>(s)];
    const double uplink = traffic.node_uplink_mbps[static_cast<std::size_t>(
        topo.server_node(gl::ServerId{s}).value())];
    const gl::Resource effective{
        .cpu = load.cpu, .mem_gb = load.mem_gb, .net_mbps = uplink};
    if (!effective.FitsIn(cap)) {
      fail("server " + std::to_string(s) + " load " + effective.ToString() +
           " (NIC = traffic-model uplink) exceeds capacity " +
           cap.ToString());
    }
  }
}

void AddSample(LayerTimes& layer, double ms) {
  layer.samples_ms.push_back(ms);
  layer.total_ms += ms;
}

template <typename T>
void CompareField(std::vector<std::string>& out, int epoch, const char* field,
                  T reference, T candidate) {
  if (reference == candidate) return;
  std::ostringstream line;
  line.precision(17);
  line << "epoch " << epoch << ": " << field << " " << candidate
       << " != reference " << reference;
  out.push_back(line.str());
}

}  // namespace

RunCounts& RunCounts::operator+=(const RunCounts& o) {
  partition_cache_hits += o.partition_cache_hits;
  pee_cap_rejections += o.pee_cap_rejections;
  vc_groups_split += o.vc_groups_split;
  vc_bandwidth_violations += o.vc_bandwidth_violations;
  cut_edges_evaluated += o.cut_edges_evaluated;
  bisection_rejections += o.bisection_rejections;
  switches_gated += o.switches_gated;
  repartitions += o.repartitions;
  repairs += o.repairs;
  groups += o.groups;
  cut_weight += o.cut_weight;
  audits += o.audits;
  nic_raw_sum_findings += o.nic_raw_sum_findings;
  return *this;
}

std::vector<std::string> CompareEpochs(
    std::span<const gl::EpochMetrics> reference,
    std::span<const gl::EpochMetrics> candidate) {
  std::vector<std::string> out;
  if (reference.size() != candidate.size()) {
    out.push_back("epoch count " + std::to_string(candidate.size()) +
                  " != reference " + std::to_string(reference.size()));
    return out;
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto& r = reference[i];
    const auto& c = candidate[i];
    const int e = r.epoch;
    CompareField(out, e, "epoch", r.epoch, c.epoch);
    CompareField(out, e, "active_servers", r.active_servers, c.active_servers);
    CompareField(out, e, "active_switches", r.active_switches,
                 c.active_switches);
    CompareField(out, e, "server_watts", r.server_watts, c.server_watts);
    CompareField(out, e, "network_watts", r.network_watts, c.network_watts);
    CompareField(out, e, "total_watts", r.total_watts, c.total_watts);
    CompareField(out, e, "avg_active_utilization", r.avg_active_utilization,
                 c.avg_active_utilization);
    CompareField(out, e, "mean_tct_ms", r.mean_tct_ms, c.mean_tct_ms);
    CompareField(out, e, "p99_tct_ms", r.p99_tct_ms, c.p99_tct_ms);
    CompareField(out, e, "sla_violation_rate", r.sla_violation_rate,
                 c.sla_violation_rate);
    CompareField(out, e, "energy_per_request_j", r.energy_per_request_j,
                 c.energy_per_request_j);
    CompareField(out, e, "migrations", r.migrations, c.migrations);
    CompareField(out, e, "migration_downtime_ms", r.migration_downtime_ms,
                 c.migration_downtime_ms);
    CompareField(out, e, "placed_containers", r.placed_containers,
                 c.placed_containers);
    CompareField(out, e, "unplaced_containers", r.unplaced_containers,
                 c.unplaced_containers);
  }
  return out;
}

TracedRun RunTraced(const Workload& workload, const Instance& instance,
                    const gl::GoldilocksOptions& options) {
  const gl::Scenario& scenario = *instance.scenario;
  const gl::Topology& topo = *workload.topology;
  const gl::RunnerOptions& ro = workload.runner_options;
  const gl::Workload& containers = scenario.workload();
  const gl::LatencyModel latency(topo, ro.latency);
  const gl::InvariantAuditor auditor(ro.audit_opts);
  gl::GoldilocksScheduler scheduler(options);
  PoolGauges pool;

  TracedRun run;
  gl::Placement previous;
  std::vector<int> previous_groups;
  for (int epoch = 0; epoch < scenario.num_epochs(); ++epoch) {
    const auto epoch_start = Clock::now();
    double excluded_ms = 0.0;  // replica and audit calls
    double spans_ms = 0.0;     // top-level layer spans

    auto t = Clock::now();
    const auto demands = scenario.DemandsAt(epoch);
    const auto active = scenario.ActiveAt(epoch);
    double ms = MsSince(t);
    AddSample(run.layers[kEpochInputs], ms);
    spans_ms += ms;

    gl::SchedulerInput input;
    input.workload = &containers;
    input.demands = demands;
    input.active = active;
    input.topology = &topo;
    input.previous = previous.server_of.empty() ? nullptr : &previous;

    const Counters before = Counters::Read();
    t = Clock::now();
    const gl::Placement placement = scheduler.Place(input);
    const double place_ms = MsSince(t);
    AddSample(run.layers[kPlace], place_ms);
    spans_ms += place_ms;
    const Counters after = Counters::Read();

    // --- graph replica and counter reads, excluded from the traced epoch --
    const auto excluded_start = Clock::now();
    run.counts.partition_cache_hits += after.cache_hits - before.cache_hits;
    run.counts.pee_cap_rejections +=
        after.pee_cap_rejections - before.pee_cap_rejections;
    run.counts.vc_groups_split +=
        after.vc_groups_split - before.vc_groups_split;
    run.counts.vc_bandwidth_violations +=
        after.vc_bandwidth_violations - before.vc_bandwidth_violations;
    double place_self_ms = place_ms;
    if (after.cache_hits == before.cache_hits) {
      // Place() partitioned: incrementally when a previous grouping exists
      // and the options ask for repair, from scratch otherwise.
      ++run.counts.repartitions;
      const bool repair =
          options.incremental_repartition && !previous_groups.empty();
      run.counts.repairs += repair;
      t = Clock::now();
      const gl::ContainerGraph cg = gl::BuildContainerGraph(
          containers, demands, active, topo.average_server_capacity());
      ms = MsSince(t);
      AddSample(run.layers[kGraphBuild], ms);
      place_self_ms -= ms;

      std::vector<int> by_vertex;
      if (repair) {
        by_vertex.resize(cg.vertex_to_container.size());
        for (std::size_t v = 0; v < by_vertex.size(); ++v) {
          by_vertex[v] = previous_groups[static_cast<std::size_t>(
              cg.vertex_to_container[v].value())];
        }
      }
      pool.Clear();
      const Counters part_before = Counters::Read();
      t = Clock::now();
      const ReplicaPartition part = PartitionReplica(
          cg.graph, topo, options, repair ? &by_vertex : nullptr);
      ms = MsSince(t);
      const Counters part_after = Counters::Read();
      AddSample(run.layers[kPartition], ms);
      place_self_ms -= ms;
      run.counts.groups += part.groups;
      run.counts.cut_weight += part.cut_weight;
      run.counts.cut_edges_evaluated +=
          part_after.cut_edges_evaluated - part_before.cut_edges_evaluated;
      run.counts.bisection_rejections +=
          part_after.bisection_rejections - part_before.bisection_rejections;
      if (!std::isnan(pool.busy.value())) {
        run.pool_busy_ms.push_back(pool.busy.value());
        run.pool_queue_wait_ms.push_back(pool.wait.value());
        run.pool_efficiency.push_back(pool.efficiency.value());
      }

      // Place() refines oversized groups by bisection and merges siblings
      // after partitioning; both are counted, so the replica's group count
      // must account for the scheduler's exactly.
      const std::int64_t expected =
          static_cast<std::int64_t>(part.groups) +
          static_cast<std::int64_t>(after.refine_bisections -
                                    before.refine_bisections) -
          static_cast<std::int64_t>(after.sibling_merges -
                                    before.sibling_merges);
      if (expected != scheduler.last_num_groups()) {
        run.failures.push_back(
            "epoch " + std::to_string(epoch) + ": replica partition gives " +
            std::to_string(expected) + " groups, Place() made " +
            std::to_string(scheduler.last_num_groups()));
      }
      const std::uint64_t rejections =
          after.pee_cap_rejections - before.pee_cap_rejections;
      if (part.fit_rejections != rejections) {
        run.failures.push_back(
            "epoch " + std::to_string(epoch) + ": replica fit rejections " +
            std::to_string(part.fit_rejections) + " != Place() " +
            std::to_string(rejections));
      }
    }
    run.place_self_ms.push_back(place_self_ms);
    previous_groups = scheduler.last_grouping();
    excluded_ms += MsSince(excluded_start);
    // ------------------------------------------------------------------------

    gl::EpochMetrics m;
    m.epoch = epoch;
    int expected_placed = 0;
    for (const auto a : active) expected_placed += a;
    m.placed_containers = placement.num_placed();
    m.unplaced_containers = expected_placed - m.placed_containers;

    t = Clock::now();
    const std::vector<gl::Resource> loads =
        gl::ServerLoads(placement, demands, topo.num_servers());
    ms = MsSince(t);
    AddSample(run.layers[kServerLoads], ms);
    spans_ms += ms;

    // Server power, as the runner computes it (inline, unattributed).
    std::vector<std::uint8_t> server_active(
        static_cast<std::size_t>(topo.num_servers()), 0);
    double util_sum = 0.0;
    for (int s = 0; s < topo.num_servers(); ++s) {
      const auto si = static_cast<std::size_t>(s);
      const bool on = !loads[si].IsZero();
      server_active[si] = on || !ro.power_off_idle_servers;
      if (!server_active[si]) continue;
      const auto& cap = topo.server_capacity(gl::ServerId{s});
      const double cpu_util = cap.cpu > 0.0 ? loads[si].cpu / cap.cpu : 0.0;
      m.server_watts += ro.server_power.Power(cpu_util);
      if (on) {
        ++m.active_servers;
        util_sum += loads[si].DominantShare(cap);
      }
    }
    m.avg_active_utilization =
        m.active_servers > 0 ? util_sum / m.active_servers : 0.0;

    t = Clock::now();
    const gl::TrafficEstimate traffic =
        gl::EstimateTraffic(containers, placement, demands, active, topo);
    ms = MsSince(t);
    AddSample(run.layers[kTraffic], ms);
    spans_ms += ms;

    const std::uint64_t gated_before = Counters::Read().switches_gated;
    t = Clock::now();
    const gl::NetworkPowerResult net =
        gl::ComputeNetworkPower(topo, server_active, traffic.node_uplink_mbps,
                                ro.switch_models, ro.gating);
    ms = MsSince(t);
    AddSample(run.layers[kNetworkPower], ms);
    spans_ms += ms;
    run.counts.switches_gated += Counters::Read().switches_gated - gated_before;
    m.network_watts = net.watts;
    m.active_switches = net.active_switches;
    m.total_watts = m.server_watts + m.network_watts;

    t = Clock::now();
    const gl::TctResult tct =
        latency.ComputeTct(containers, placement, demands, active, traffic);
    ms = MsSince(t);
    AddSample(run.layers[kTctModel], ms);
    spans_ms += ms;
    m.mean_tct_ms = tct.mean_ms;
    m.p99_tct_ms = tct.p99_ms;
    m.sla_violation_rate = tct.sla_violation_rate;
    m.rps = scenario.TotalRpsAt(epoch);
    m.energy_per_request_j = (m.total_watts / 1000.0) * m.mean_tct_ms;
    m.watts_per_krps = m.rps > 0.0 ? m.total_watts / (m.rps / 1000.0) : 0.0;

    if (!previous.server_of.empty()) {
      t = Clock::now();
      const gl::MigrationCost mig = gl::ComputeMigrationCost(
          previous, placement, containers, demands, ro.migration);
      ms = MsSince(t);
      AddSample(run.layers[kMigration], ms);
      spans_ms += ms;
      m.migrations = mig.migrations;
      m.migration_downtime_ms = mig.total_downtime_ms;
    }
    previous = placement;

    const auto audit_start = Clock::now();
    gl::SystemView view;
    view.topology = &topo;
    view.workload = &containers;
    view.demands = input.demands;
    view.active = active;
    view.placement = &placement;
    view.server_power = &ro.server_power;
    AuditEpoch(auditor, view, loads, traffic, epoch, run);
    excluded_ms += MsSince(audit_start);

    m.wall_ms = MsSince(epoch_start) - excluded_ms;
    run.unattributed_ms.push_back(m.wall_ms - spans_ms);
    run.epochs.push_back(m);
  }
  return run;
}

}  // namespace epochbench
