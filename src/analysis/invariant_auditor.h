// Cross-module invariant auditing.
//
// Goldilocks' power and TCT numbers are only meaningful while a handful of
// invariants hold — per-server demand within capacity and the PEE cap,
// Eq. (4)/(5) bandwidth reservations within residual link capacity, replicas
// separated across fault domains, a well-formed container graph and topology
// tree, a sane power model. A scheduler acting on corrupted state silently
// destroys exactly the gains being measured, so the auditor walks the full
// system state after an epoch and reports every violation it can find as a
// structured finding instead of trusting scattered GOLDILOCKS_CHECKs.
//
// The auditor is read-only and side-effect free: it never mutates the state
// it inspects and never aborts. Callers decide whether findings are fatal
// (the simulator's fail-fast hook turns errors into a CHECK failure; the
// standalone tools/audit runner just prints them).
//
// Invariant catalog:
//   conservation    — every placed container is active, maps to a valid
//                     server, and demand vectors are finite and non-negative
//                     (the vector representation of Placement structurally
//                     rules out double placement; the remaining failure
//                     modes are phantom and out-of-range placements).
//   capacity        — aggregate placed demand fits every server's capacity
//                     in all three resource dimensions.
//   pee-cap         — aggregate CPU/network demand also respects the Peak
//                     Energy Efficiency ceiling (memory has its own
//                     ceiling). Overcommit policies (E-PVM) violate this on
//                     purpose, so it defaults to a warning.
//   bandwidth       — every DCN uplink has non-negative residual capacity
//                     given the Virtual-Cluster reservations booked on it,
//                     and no reservation is negative or non-finite.
//   replica-domains — containers sharing a replica_set occupy distinct
//                     fault domains (distinct servers at level 0; racks at
//                     level 1, ...).
//   graph           — symmetric adjacency, no self-loops, finite weights,
//                     non-negative vertex demands and balance weights.
//                     Negative *edge* weights are legal in the container
//                     graph (replica anti-affinity) and gated by an option.
//   topology        — single root, consistent parent/child links, levels
//                     strictly decreasing toward the leaves, depths counting
//                     links to the root, servers exactly at level 0, finite
//                     non-negative capacities.
//   power-model     — P(u) finite, non-negative, monotone non-decreasing in
//                     utilization, and bounded by max_watts.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/resource.h"
#include "graph/graph.h"
#include "power/server_power.h"
#include "schedulers/placement.h"
#include "topology/topology.h"
#include "workload/container.h"

namespace gl {

enum class AuditSeverity { kWarning, kError };
enum class AuditClass {
  kConservation,
  kCapacity,
  kPeeCap,
  kBandwidth,
  kReplicaDomains,
  kGraph,
  kTopology,
  kPowerModel,
};

[[nodiscard]] const char* AuditSeverityName(AuditSeverity s);
[[nodiscard]] const char* AuditClassName(AuditClass c);

struct AuditFinding {
  AuditSeverity severity = AuditSeverity::kError;
  AuditClass invariant = AuditClass::kConservation;
  // Which part of the system the finding points at ("placement",
  // "topology", "graph", "power", "workload").
  std::string subsystem;
  std::string message;
  // Offending entity ids; interpretation depends on the invariant class
  // (ContainerId values for conservation/replica findings, ServerId values
  // for capacity, NodeId values for topology/bandwidth, vertex indices for
  // graph, none for power-model findings).
  std::vector<std::int32_t> offending_ids;
};

struct AuditReport {
  std::vector<AuditFinding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] int errors() const;
  [[nodiscard]] int warnings() const;
  [[nodiscard]] int CountFor(AuditClass c) const;
  [[nodiscard]] bool Has(AuditClass c) const { return CountFor(c) > 0; }
  // One line per finding, "severity [class/subsystem] message (ids: ...)".
  [[nodiscard]] std::string ToString() const;

  void Append(const AuditReport& other);
};

struct AuditOptions {
  // PEE packing ceiling audited for CPU and network; memory gets its own.
  double pee_utilization = 0.70;
  double memory_ceiling = 1.0;
  // Overcommit policies exceed the PEE cap deliberately; capacity overflow
  // is always an error, the PEE cap only when this is set.
  bool pee_cap_is_error = false;
  // Fault-domain level replicas must be separated at: 0 = distinct servers,
  // 1 = distinct racks, ...
  int replica_domain_level = 0;
  // Placement never fails hard, so a saturated cluster can legitimately
  // co-locate replicas; flip to false to downgrade those findings.
  bool replica_violation_is_error = true;
  // Container graphs carry negative anti-affinity edges by design; set
  // false when auditing capacity graphs, where every weight is a distance.
  bool allow_negative_edges = true;
  // Utilization samples for the power-model monotonicity sweep.
  int power_model_samples = 64;
  // Findings per invariant class are capped so a massively corrupted state
  // produces a readable report rather than one line per container.
  int max_findings_per_class = 16;
};

// Non-owning view of the state under audit. Null/empty members skip the
// checks that need them, so callers can audit any subset of the system.
struct SystemView {
  const Topology* topology = nullptr;
  const Workload* workload = nullptr;
  std::span<const Resource> demands;      // indexed by ContainerId value
  std::span<const std::uint8_t> active;   // indexed by ContainerId value
  const Placement* placement = nullptr;
  const Graph* container_graph = nullptr;
  const ServerPowerModel* server_power = nullptr;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditOptions opts = {});

  // Runs every applicable invariant family over `view`.
  [[nodiscard]] AuditReport AuditAll(const SystemView& view) const;

  // Individual invariant families; each appends findings to `out`.
  void AuditTopology(const Topology& topo, AuditReport& out) const;
  void AuditBandwidth(const Topology& topo, AuditReport& out) const;
  // Conservation + capacity + PEE cap for one placement.
  void AuditPlacement(const Placement& placement,
                      std::span<const Resource> demands,
                      std::span<const std::uint8_t> active,
                      const Topology& topo, AuditReport& out) const;
  void AuditReplicaDomains(const Placement& placement,
                           const Workload& workload, const Topology& topo,
                           AuditReport& out) const;
  void AuditGraph(const Graph& graph, AuditReport& out) const;
  void AuditPowerModel(const ServerPowerModel& model, AuditReport& out) const;
  // Power-curve form of the model audit: samples `power_at_utilization`
  // over [0, 1] and checks finiteness, non-negativity, the `max_watts`
  // bound and monotone non-decrease. ServerPowerModel's ctor validates its
  // parameters, so this is the seam external/custom curves come in through.
  void AuditPowerCurve(const std::function<double(double)>& power_at_utilization,
                       double max_watts, const std::string& name,
                       AuditReport& out) const;

  [[nodiscard]] const AuditOptions& options() const { return opts_; }

 private:
  AuditOptions opts_;
};

}  // namespace gl
