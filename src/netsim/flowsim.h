// Flow-level network simulator.
//
// The paper's large-scale evaluation (Sec. VI-B) is a flow-level simulation:
// flows get max-min fair bandwidth shares over the links they traverse, and
// completion time follows from the evolving rate allocation. This module
// implements progressive-filling max-min fairness over the Topology's
// directed uplink/downlink bundles and an event-driven run-to-completion
// loop that yields per-flow FCTs and per-link peak utilization (which drives
// switch gating).
//
// Routing: the unique tree path src → LCA → dst. The upward traversal of a
// node consumes its uplink bundle's "up" direction; the downward traversal of
// a node consumes its "down" direction (full-duplex bundles).
#pragma once

#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace gl {

struct Flow {
  ServerId src;
  ServerId dst;
  double size_bytes = 0.0;

  // Outputs.
  double rate_mbps = 0.0;       // most recent max-min allocation
  double completion_ms = -1.0;  // set by RunToCompletion
};

class FlowSimulator {
 public:
  explicit FlowSimulator(const Topology& topo);

  // Adds a flow; returns its index.
  int AddFlow(ServerId src, ServerId dst, double size_bytes);
  void Clear();

  [[nodiscard]] int num_flows() const {
    return static_cast<int>(flows_.size());
  }
  [[nodiscard]] const Flow& flow(int i) const {
    return flows_[static_cast<std::size_t>(i)];
  }

  // One-shot max-min fair allocation for the current flow set (all flows
  // considered active). Updates each flow's rate_mbps.
  void ComputeMaxMinRates();

  // Event-driven run: repeatedly allocate max-min rates, advance to the next
  // flow completion, repeat. Fills completion_ms on every flow. Flows with
  // src == dst complete in `intra_server_ms`.
  void RunToCompletion(double intra_server_ms = 0.01);

  // Peak utilization seen on a node's uplink during the last run (fraction
  // of capacity; max of the two directions).
  [[nodiscard]] double PeakUplinkUtilization(NodeId node) const;

  // Mean/max completion time over all flows (after RunToCompletion).
  [[nodiscard]] double MeanFctMs() const;

  // Directed links on the path of a flow, source side first: 2·node for a
  // node's uplink bundle climbed toward the LCA, 2·node+1 for one descended
  // toward the destination. Empty when src == dst.
  [[nodiscard]] std::vector<int> Route(ServerId src, ServerId dst) const;

 private:
  // Directed capacity index: 2*node for "up", 2*node+1 for "down".
  [[nodiscard]] int UpIndex(NodeId n) const { return 2 * n.value(); }
  [[nodiscard]] int DownIndex(NodeId n) const { return 2 * n.value() + 1; }

  // Max-min allocation over a subset of live flows (by index).
  void AllocateRates(const std::vector<int>& live);

  const Topology& topo_;
  std::vector<Flow> flows_;
  std::vector<std::vector<int>> routes_;   // per flow
  std::vector<double> capacity_mbps_;      // per directed index
  std::vector<double> peak_utilization_;   // per directed index
};

}  // namespace gl
