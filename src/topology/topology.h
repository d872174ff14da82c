// Hierarchical data-center network model.
//
// Goldilocks places container groups on *substructures* — a machine, a rack,
// a pod, a subtree (Sec. III-B) — so the topology is modelled as a rooted
// hierarchy whose leaves are servers. Multi-rooted Clos fabrics (fat-tree,
// leaf-spine, VL2) map onto this by aggregating the ECMP uplinks of a
// substructure into one logical uplink whose capacity equals the
// substructure's outbound bisection bandwidth — the same abstraction Oktopus
// [46] uses, and exactly the quantity equations (4)/(5) reserve against.
//
// Physical switch counts per hierarchy node are retained so the power module
// can account for and gate real switches, not logical ones.
//
// Asymmetry (Sec. IV) enters in two ways:
//   * heterogeneous servers — per-server capacity vectors are mutable;
//   * link/switch failures — uplink capacities can be degraded per node.
#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/resource.h"

namespace gl {

class Topology {
 public:
  struct Node {
    NodeId id;
    NodeId parent = NodeId::invalid();
    std::vector<NodeId> children;
    int level = 0;  // 0 = server; increases toward the root
    // Aggregate capacity of all physical uplinks toward the parent (Mbps).
    double uplink_capacity_mbps GL_UNITS(bits_per_sec) = 0.0;
    // Bandwidth currently reserved on that uplink by placed Virtual Clusters.
    double uplink_reserved_mbps GL_UNITS(bits_per_sec) = 0.0;
    // Physical switches this hierarchy node stands for (0 for servers).
    int physical_switches = 0;
    // Physical links the uplink bundle stands for.
    int physical_uplinks = 0;
    ServerId server = ServerId::invalid();  // valid iff level == 0
  };

  // What the tree-path walker reads per node, kept apart from the Node so
  // a walk touches 8 bytes per hop. `parent` mirrors Node::parent.
  struct PathHop {
    NodeId parent = NodeId::invalid();
    int depth = 0;  // links to the root (0 for the root), set when added
  };

  // --- construction -------------------------------------------------------

  // Adds an internal (switch) node. Parent must exist or be invalid() for
  // the root (only one root allowed).
  NodeId AddSwitchNode(NodeId parent, int level, double uplink_mbps,
                       int physical_switches, int physical_uplinks);

  // Adds a server leaf under `rack`. NIC bandwidth doubles as the uplink
  // capacity of the leaf node.
  ServerId AddServer(NodeId rack, const Resource& capacity);

  // Named factories.
  //
  // k-ary fat-tree [35]: k pods, k/2 edge + k/2 aggregation switches per
  // pod, (k/2)^2 core switches, k^3/4 servers. k must be even and >= 2.
  static Topology FatTree(int k, const Resource& server_capacity,
                          double link_mbps);

  // Leaf-spine: `leaves` ToR switches with `servers_per_leaf` servers each,
  // fully meshed to `spines` spine switches.
  static Topology LeafSpine(int leaves, int servers_per_leaf, int spines,
                            const Resource& server_capacity, double link_mbps);

  // The paper's 16-node testbed (Sec. V): 8 virtual leaf switches with 2
  // servers each, 2 spine switches, 1G links; 32-core / 64 GB servers.
  static Topology Testbed16();

  // Generic three-tier Clos: `pods` pods of `racks_per_pod` racks with
  // `servers_per_rack` servers; each rack has `rack_uplinks` links of
  // `fabric_link_mbps`; each pod has `agg_per_pod` aggregation switches
  // with `pod_uplinks` links to `core_switches` cores. Expresses the
  // VL2 [34] and Facebook-fabric [32] rows of Table I at any scale.
  struct ThreeTierSpec {
    int pods = 4;
    int racks_per_pod = 4;
    int servers_per_rack = 20;
    int rack_uplinks = 2;
    int agg_per_pod = 2;
    int pod_uplinks = 4;
    int core_switches = 4;
    double server_link_mbps GL_UNITS(bits_per_sec) = 10000.0;
    double fabric_link_mbps GL_UNITS(bits_per_sec) = 40000.0;
    Resource server_capacity{.cpu = 3200, .mem_gb = 64, .net_mbps = 10000};
  };
  static Topology ThreeTier(const ThreeTierSpec& spec);

  // VL2(d)-shaped instance [34]: 20 servers per ToR, ToRs dual-homed into
  // an aggregation mesh. `scale` divides the Table I row for laptop-sized
  // experiments while preserving the shape.
  static Topology Vl2(int num_tors, const Resource& server_capacity,
                      double server_link_mbps = 10000.0);

  // --- structural queries --------------------------------------------------

  [[nodiscard]] const Node& node(NodeId id) const {
    return nodes_[CheckedNode(id)];
  }
  [[nodiscard]] const PathHop& path_hop(NodeId id) const {
    return hops_[CheckedNode(id)];
  }
  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] int num_servers() const {
    return static_cast<int>(server_nodes_.size());
  }
  [[nodiscard]] int num_switches() const;  // physical switch count
  [[nodiscard]] int num_links() const;     // physical link count
  [[nodiscard]] int num_levels() const { return num_levels_; }

  [[nodiscard]] NodeId server_node(ServerId s) const {
    return server_nodes_[CheckedServer(s)];
  }
  [[nodiscard]] const Resource& server_capacity(ServerId s) const {
    return server_capacity_[CheckedServer(s)];
  }
  // Heterogeneity hook: replace one server's capacity (Sec. IV).
  void set_server_capacity(ServerId s, const Resource& c) {
    server_capacity_[CheckedServer(s)] = c;
  }
  [[nodiscard]] Resource total_server_capacity() const;
  [[nodiscard]] Resource average_server_capacity() const;

  // Number of links on the shortest path between two servers (0 if equal).
  [[nodiscard]] int HopDistance(ServerId a, ServerId b) const;

  // Visits every node whose uplink bundle the tree path between two
  // servers crosses, calling fn(node, from_a) with from_a true on a's side
  // of the lowest common ancestor. The order is fixed, and callers that sum
  // floating-point values along the path rely on it: a's side climbs while
  // it is deeper, then b's side while it is deeper, then the two sides
  // alternately (a first) until they meet. Equal servers visit nothing.
  template <typename Fn>
  void ForEachPathUplink(ServerId a, ServerId b, Fn&& fn) const {
    NodeId na = server_node(a);
    NodeId nb = server_node(b);
    const PathHop* pa = &hops_[CheckedNode(na)];
    const PathHop* pb = &hops_[CheckedNode(nb)];
    while (pa->depth > pb->depth) {
      fn(na, true);
      na = pa->parent;
      pa = &hops_[CheckedNode(na)];
    }
    while (pb->depth > pa->depth) {
      fn(nb, false);
      nb = pb->parent;
      pb = &hops_[CheckedNode(nb)];
    }
    while (na != nb) {
      fn(na, true);
      fn(nb, false);
      na = pa->parent;
      nb = pb->parent;
      pa = &hops_[CheckedNode(na)];
      pb = &hops_[CheckedNode(nb)];
    }
  }

  // Servers under a subtree in left-to-right (locality) order.
  [[nodiscard]] std::vector<ServerId> ServersUnder(NodeId subtree) const;

  // All nodes at a given level, left-to-right.
  [[nodiscard]] std::vector<NodeId> NodesAtLevel(int level) const;

  // Walks up from `id`; returns the ancestor at `level` (or invalid()).
  [[nodiscard]] NodeId AncestorAt(NodeId id, int level) const;

  // --- bandwidth accounting (asymmetric placement) -------------------------

  [[nodiscard]] double uplink_capacity(NodeId id) const
      GL_UNITS(bits_per_sec) {
    return nodes_[CheckedNode(id)].uplink_capacity_mbps;
  }
  [[nodiscard]] double uplink_reserved(NodeId id) const
      GL_UNITS(bits_per_sec) {
    return nodes_[CheckedNode(id)].uplink_reserved_mbps;
  }
  [[nodiscard]] double uplink_residual(NodeId id) const
      GL_UNITS(bits_per_sec) {
    const auto& n = nodes_[CheckedNode(id)];
    return n.uplink_capacity_mbps - n.uplink_reserved_mbps;
  }
  void Reserve(NodeId id, double mbps GL_UNITS(bits_per_sec));
  void Release(NodeId id, double mbps GL_UNITS(bits_per_sec));
  void ClearReservations();

  // Failure injection: scales the uplink capacity of `id` by `factor`
  // (e.g. 0.5 = half the uplinks of this substructure failed).
  void DegradeUplink(NodeId id, double factor GL_UNITS(dimensionless));

 private:
  [[nodiscard]] std::size_t CheckedNode(NodeId id) const {
    GOLDILOCKS_CHECK(id.valid() && id.value() < num_nodes());
    return static_cast<std::size_t>(id.value());
  }
  [[nodiscard]] std::size_t CheckedServer(ServerId s) const {
    GOLDILOCKS_CHECK(s.valid() && s.value() < num_servers());
    return static_cast<std::size_t>(s.value());
  }

  std::vector<Node> nodes_;
  std::vector<PathHop> hops_;  // per node, beside nodes_
  std::vector<NodeId> server_nodes_;    // ServerId → leaf node
  std::vector<Resource> server_capacity_;
  NodeId root_ = NodeId::invalid();
  int num_levels_ = 0;
};

}  // namespace gl
