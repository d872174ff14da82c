// The Goldilocks scheduler (Sec. III: symmetric topologies).
//
// Placement pipeline per epoch:
//   1. Compact the workload's container graph (built once per workload) to
//      the active containers.
//   2. Recursively bipartition it (min-cut, balanced) until every group's
//      aggregate demand fits one server packed to the Peak Energy Efficiency
//      ceiling (70% CPU/network by default; memory has its own ceiling —
//      RAM draws little dynamic power, so there is no PEE argument for
//      leaving 30% of it idle).
//   3. Optionally re-merge sibling groups whose combined demand still fits
//      the ceiling — recursive halving alone can leave servers half full.
//   4. Walk groups in recursion-tree (locality) order and servers in
//      topology (left-most) order, assigning each group to the next server
//      it fits on. Sibling groups land on adjacent servers — the same rack
//      or pod — which is exactly the capacity-graph max-cut assignment of
//      the paper, computed directly on the topology tree.
//
// Options cover the paper's ablations (PEE ceiling, locality on/off) and the
// asymmetric path (Sec. IV) via the Virtual Cluster placer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/graph_builder.h"
#include "graph/partitioner.h"
#include "schedulers/scheduler.h"

namespace gl {

struct GoldilocksOptions {
  // Packing ceiling at the Peak Energy Efficiency point (CPU & network).
  double pee_utilization = 0.70;
  // Memory ceiling (kept below 100% for kernel/page-cache headroom; RAM
  // draws little dynamic power and does not burst, so it is not tied to
  // the PEE point).
  double memory_ceiling = 1.0;
  // Groups are formed against ceiling × (1 - group_headroom) so a cached
  // grouping survives epoch-to-epoch demand growth (the reuse check and the
  // final placement still enforce the full ceiling).
  double group_headroom GL_UNITS(dimensionless) = 0.10;
  // A group stays on its current server while the server remains below
  // this fraction of *full* capacity (CPU/network): moderate drift is
  // absorbed by the PEE headroom instead of triggering migration; beyond
  // it the group is re-placed. Memory is always allowed to 100%.
  double stability_ceiling = 0.85;
  // Re-merge sibling partitions that jointly fit one server.
  bool merge_sibling_groups = true;
  // Ablation hook: when false, groups are assigned to servers in a
  // demand-size order with no relation to the recursion tree, destroying
  // inter-group locality while keeping identical packing.
  bool locality_order = true;
  // Use the Sec. IV Virtual Cluster placer (required for asymmetric
  // topologies / heterogeneous servers; optional for symmetric ones).
  bool use_virtual_clusters = false;
  // Epochs between full re-partitions; between them the previous grouping
  // is re-packed with fresh demands (and re-partitioned anyway if any group
  // outgrew a server).
  int repartition_interval = 1;
  // When a re-partition is due and a previous grouping exists, repair it
  // incrementally (graph/incremental.h — the paper's Sec. IV-C future
  // work) instead of running a fresh recursive partition. Bounds migration
  // churn at a small cost in cut quality.
  bool incremental_repartition = false;
  PartitionOptions partition;
};

class GoldilocksScheduler final : public Scheduler {
 public:
  explicit GoldilocksScheduler(GoldilocksOptions opts = {});
  ~GoldilocksScheduler() override;

  [[nodiscard]] const std::string& name() const override { return name_; }
  Placement Place(const SchedulerInput& input) override;
  // Digest of the partition cache (grouping, recursion paths, group →
  // server pins) — the mutable state that steers placements across epochs.
  [[nodiscard]] std::uint64_t StateDigest() const override;

  // Grouping produced by the last Place() call (group id per ContainerId,
  // -1 for inactive) — exposed for the Fig. 7 visualisations and tests.
  [[nodiscard]] const std::vector<int>& last_grouping() const {
    return last_grouping_;
  }
  [[nodiscard]] int last_num_groups() const { return last_num_groups_; }

 private:
  struct PartitionCache;

  // Returns groups as container-id lists, in the order they should be laid
  // onto servers: the cached grouping, valid until the next call.
  const std::vector<std::vector<ContainerId>>& PartitionContainers(
      const SchedulerInput& input, const WorkloadGraph& graph);

  Placement AssignGroupsSymmetric(
      const SchedulerInput& input,
      const std::vector<std::vector<ContainerId>>& groups,
      const WorkloadGraph& graph) const;

  std::string name_ = "Goldilocks";
  GoldilocksOptions opts_;
  std::unique_ptr<PartitionCache> cache_;
  std::vector<int> last_grouping_;
  int last_num_groups_ = 0;
};

}  // namespace gl
