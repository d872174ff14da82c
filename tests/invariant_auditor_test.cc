// Corruption-injection tests for the InvariantAuditor.
//
// The contract under test: a clean system state produces zero findings, and
// every invariant class the auditor claims to check is actually detected
// when that class is violated on purpose. Each corruption is injected
// through public mutation APIs (placement vectors, Topology::Reserve /
// set_server_capacity, Graph::AddEdge, custom power curves), except a node's
// stored depth, which no API can desynchronize: it is overwritten through
// the node reference, standing in for memory corruption. Graph
// self-loops and asymmetric adjacency cannot be constructed through the
// Graph API (AddEdge is symmetric and drops self-loops), so those auditor
// checks are defense-in-depth and not exercised here.
#include "analysis/invariant_auditor.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/epoch_controller.h"
#include "core/goldilocks.h"
#include "core/graph_builder.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace gl {
namespace {

struct TestState {
  Topology topo;
  Workload workload;
  std::vector<Resource> demands;
  std::vector<std::uint8_t> active;
  Placement placement;
};

// A comfortably-fitting workload on the 16-server testbed, placed by the
// real Goldilocks scheduler: two memcached/front-end services plus one
// three-way replica set spread across fault domains.
TestState MakePlacedState(std::uint64_t seed = 0) {
  TestState st;
  st.topo = Topology::Testbed16();
  AppendService(st.workload, AppType::kMemcached, 4, /*service_id=*/0);
  AppendService(st.workload, AppType::kFrontend, 4, /*service_id=*/1);
  const auto replicas =
      AppendService(st.workload, AppType::kCassandra, 3, /*service_id=*/2);
  for (const auto id : replicas) {
    st.workload.containers[static_cast<std::size_t>(id.value())].replica_set =
        GroupId{7};
  }
  if (seed != 0) {
    // Shake demands a little so the randomized property test sees many
    // distinct (still valid) states.
    Rng rng(seed);
    for (auto& c : st.workload.containers) {
      c.demand = c.demand * rng.Uniform(0.5, 1.0);
    }
  }
  for (const auto& c : st.workload.containers) st.demands.push_back(c.demand);
  st.active.assign(st.workload.containers.size(), 1);

  GoldilocksScheduler scheduler;
  SchedulerInput input;
  input.workload = &st.workload;
  input.demands = st.demands;
  input.active = st.active;
  input.topology = &st.topo;
  st.placement = scheduler.Place(input);
  return st;
}

SystemView ViewOf(const TestState& st) {
  SystemView view;
  view.topology = &st.topo;
  view.workload = &st.workload;
  view.demands = st.demands;
  view.active = st.active;
  view.placement = &st.placement;
  return view;
}

TEST(InvariantAuditor, CleanStateHasNoFindings) {
  const TestState st = MakePlacedState();
  ASSERT_EQ(st.placement.num_placed(), st.workload.size());
  const InvariantAuditor auditor;
  const AuditReport report = auditor.AuditAll(ViewOf(st));
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(InvariantAuditor, CleanStateWithGraphAndPowerModel) {
  const TestState st = MakePlacedState();
  const ContainerGraph cg =
      BuildContainerGraph(st.workload, st.demands, st.active,
                          st.topo.average_server_capacity());
  const ServerPowerModel power = ServerPowerModel::Dell2018();
  SystemView view = ViewOf(st);
  view.container_graph = &cg.graph;
  view.server_power = &power;
  const InvariantAuditor auditor;
  const AuditReport report = auditor.AuditAll(view);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(InvariantAuditor, DetectsOutOfRangeServer) {
  TestState st = MakePlacedState();
  st.placement.server_of[0] = ServerId{9999};
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_TRUE(report.Has(AuditClass::kConservation)) << report.ToString();
  EXPECT_GT(report.errors(), 0);
}

TEST(InvariantAuditor, DetectsPhantomPlacementOfInactiveContainer) {
  TestState st = MakePlacedState();
  st.active[2] = 0;  // still placed: a phantom consuming capacity
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_TRUE(report.Has(AuditClass::kConservation)) << report.ToString();
  EXPECT_GT(report.errors(), 0);
}

TEST(InvariantAuditor, DetectsNegativeAndNonFiniteDemand) {
  TestState st = MakePlacedState();
  st.demands[1].cpu = -5.0;
  st.demands[3].mem_gb = std::numeric_limits<double>::quiet_NaN();
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_GE(report.CountFor(AuditClass::kConservation), 2)
      << report.ToString();
}

TEST(InvariantAuditor, WarnsOnUnplacedActiveContainer) {
  TestState st = MakePlacedState();
  st.placement.server_of[4] = ServerId::invalid();
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_TRUE(report.Has(AuditClass::kConservation)) << report.ToString();
  EXPECT_EQ(report.errors(), 0) << report.ToString();
  EXPECT_GT(report.warnings(), 0);
}

TEST(InvariantAuditor, DetectsCapacityOverflow) {
  TestState st = MakePlacedState();
  // Pile everything onto one server at 20× demand: far past a 32-core
  // testbed machine.
  for (auto& d : st.demands) d = d * 20.0;
  for (auto& s : st.placement.server_of) s = ServerId{0};
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_TRUE(report.Has(AuditClass::kCapacity)) << report.ToString();
  EXPECT_GT(report.errors(), 0);
}

TEST(InvariantAuditor, DetectsPeeCapViolationAsWarning) {
  TestState st;
  st.topo = Topology::Testbed16();
  Container c;
  c.id = ContainerId{0};
  // 80% of every dimension: above the 70% PEE cap, below capacity.
  c.demand = st.topo.server_capacity(ServerId{0}) * 0.80;
  st.workload.containers.push_back(c);
  st.demands.push_back(c.demand);
  st.active.assign(1, 1);
  st.placement.server_of.assign(1, ServerId{0});

  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_FALSE(report.Has(AuditClass::kCapacity)) << report.ToString();
  EXPECT_EQ(report.CountFor(AuditClass::kPeeCap), 1) << report.ToString();
  EXPECT_EQ(report.errors(), 0);
  EXPECT_EQ(report.warnings(), 1);

  AuditOptions strict;
  strict.pee_cap_is_error = true;
  const AuditReport strict_report =
      InvariantAuditor(strict).AuditAll(ViewOf(st));
  EXPECT_EQ(strict_report.errors(), 1) << strict_report.ToString();
}

TEST(InvariantAuditor, DetectsOverReservedUplink) {
  TestState st = MakePlacedState();
  const NodeId leaf = st.topo.NodesAtLevel(1).front();
  st.topo.Reserve(leaf, st.topo.uplink_capacity(leaf) + 100.0);
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_TRUE(report.Has(AuditClass::kBandwidth)) << report.ToString();
  EXPECT_GT(report.errors(), 0);
}

TEST(InvariantAuditor, DetectsOverReservationAfterLinkDegradation) {
  // Eq. (4)/(5) reservations that were feasible become infeasible when the
  // uplink loses half its physical links — the auditor must notice.
  TestState st = MakePlacedState();
  const NodeId leaf = st.topo.NodesAtLevel(1).front();
  st.topo.Reserve(leaf, 0.9 * st.topo.uplink_capacity(leaf));
  ASSERT_TRUE(InvariantAuditor().AuditAll(ViewOf(st)).clean());
  st.topo.DegradeUplink(leaf, 0.5);
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_TRUE(report.Has(AuditClass::kBandwidth)) << report.ToString();
}

TEST(InvariantAuditor, DetectsCoLocatedReplicas) {
  TestState st = MakePlacedState();
  // Force two members of replica set 7 onto one server.
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < st.workload.containers.size(); ++i) {
    if (st.workload.containers[i].replica_set.valid()) members.push_back(i);
  }
  ASSERT_GE(members.size(), 2u);
  st.placement.server_of[members[1]] = st.placement.server_of[members[0]];
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  EXPECT_TRUE(report.Has(AuditClass::kReplicaDomains)) << report.ToString();
  EXPECT_GT(report.errors(), 0);
}

TEST(InvariantAuditor, ReplicaDomainLevelControlsGranularity) {
  TestState st = MakePlacedState();
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < st.workload.containers.size(); ++i) {
    if (st.workload.containers[i].replica_set.valid()) members.push_back(i);
  }
  ASSERT_GE(members.size(), 3u);
  // Testbed16 leaves hold two servers each: servers 0 and 1 share a rack
  // but are distinct servers; server 8 is in a different rack entirely.
  st.placement.server_of[members[0]] = ServerId{0};
  st.placement.server_of[members[1]] = ServerId{1};
  st.placement.server_of[members[2]] = ServerId{8};
  ASSERT_FALSE(
      InvariantAuditor().AuditAll(ViewOf(st)).Has(AuditClass::kReplicaDomains));

  AuditOptions rack_level;
  rack_level.replica_domain_level = 1;
  const AuditReport report =
      InvariantAuditor(rack_level).AuditAll(ViewOf(st));
  EXPECT_TRUE(report.Has(AuditClass::kReplicaDomains)) << report.ToString();
}

TEST(InvariantAuditor, DetectsGraphCorruption) {
  const InvariantAuditor auditor;

  Graph nan_edge;
  const auto a = nan_edge.AddVertex(Resource{1, 1, 1});
  const auto b = nan_edge.AddVertex(Resource{1, 1, 1});
  nan_edge.AddEdge(a, b, std::numeric_limits<double>::quiet_NaN());
  AuditReport r1;
  auditor.AuditGraph(nan_edge, r1);
  EXPECT_TRUE(r1.Has(AuditClass::kGraph)) << r1.ToString();

  Graph bad_vertex;
  bad_vertex.AddVertex(Resource{.cpu = -3.0, .mem_gb = 1.0, .net_mbps = 0.0});
  AuditReport r2;
  auditor.AuditGraph(bad_vertex, r2);
  EXPECT_TRUE(r2.Has(AuditClass::kGraph)) << r2.ToString();

  // Negative (anti-affinity) edges are legal in container graphs but not in
  // capacity graphs.
  Graph negative;
  const auto u = negative.AddVertex(Resource{1, 1, 1});
  const auto v = negative.AddVertex(Resource{1, 1, 1});
  negative.AddEdge(u, v, -1.0e5);
  AuditReport lax;
  auditor.AuditGraph(negative, lax);
  EXPECT_FALSE(lax.Has(AuditClass::kGraph)) << lax.ToString();
  AuditOptions strict;
  strict.allow_negative_edges = false;
  AuditReport r3;
  InvariantAuditor(strict).AuditGraph(negative, r3);
  EXPECT_TRUE(r3.Has(AuditClass::kGraph)) << r3.ToString();
}

// Overwrites the depth the path walker reads for a node; the object is
// non-const, so writing through the const_cast reference is well-defined.
void CorruptDepth(Topology& topo, NodeId id, int delta) {
  const_cast<Topology::PathHop&>(topo.path_hop(id)).depth += delta;
}

// Points the walker's copy of a node's parent elsewhere, as above.
void CorruptHopParent(Topology& topo, NodeId id, NodeId parent) {
  const_cast<Topology::PathHop&>(topo.path_hop(id)).parent = parent;
}

TEST(InvariantAuditor, DetectsTopologyCorruption) {
  const InvariantAuditor auditor;

  Topology negative_capacity = Topology::Testbed16();
  negative_capacity.set_server_capacity(
      ServerId{3}, Resource{.cpu = -100.0, .mem_gb = 64.0, .net_mbps = 1000.0});
  AuditReport r1;
  auditor.AuditTopology(negative_capacity, r1);
  EXPECT_TRUE(r1.Has(AuditClass::kTopology)) << r1.ToString();

  Topology negative_uplink;
  const NodeId root =
      negative_uplink.AddSwitchNode(NodeId::invalid(), 2, 0.0, 1, 0);
  negative_uplink.AddSwitchNode(root, 1, -500.0, 1, 1);
  AuditReport r2;
  auditor.AuditTopology(negative_uplink, r2);
  EXPECT_TRUE(r2.Has(AuditClass::kTopology)) << r2.ToString();

  Topology root_depth = Topology::Testbed16();
  CorruptDepth(root_depth, root_depth.root(), 1);
  AuditReport r3;
  auditor.AuditTopology(root_depth, r3);
  EXPECT_TRUE(r3.Has(AuditClass::kTopology)) << r3.ToString();

  Topology leaf_depth = Topology::Testbed16();
  CorruptDepth(leaf_depth, leaf_depth.server_node(ServerId{5}), -1);
  AuditReport r4;
  auditor.AuditTopology(leaf_depth, r4);
  EXPECT_TRUE(r4.Has(AuditClass::kTopology)) << r4.ToString();

  Topology hop_parent = Topology::Testbed16();
  CorruptHopParent(hop_parent, hop_parent.server_node(ServerId{5}),
                   hop_parent.root());
  AuditReport r5;
  auditor.AuditTopology(hop_parent, r5);
  EXPECT_TRUE(r5.Has(AuditClass::kTopology)) << r5.ToString();
}

TEST(InvariantAuditor, ShippedPowerModelsAreClean) {
  const InvariantAuditor auditor;
  const ServerPowerModel models[] = {
      ServerPowerModel::Dell2018(), ServerPowerModel::DellR940(),
      ServerPowerModel::Linear2010(), ServerPowerModel::Facebook1S(),
      ServerPowerModel::MicrosoftBlade(),
      ServerPowerModel::WithPeePoint(0.40)};
  for (const auto& m : models) {
    AuditReport report;
    auditor.AuditPowerModel(m, report);
    EXPECT_TRUE(report.clean()) << m.name() << ": " << report.ToString();
  }
}

TEST(InvariantAuditor, DetectsCorruptPowerCurves) {
  const InvariantAuditor auditor;

  AuditReport nonmono;
  auditor.AuditPowerCurve(
      [](double u) { return 100.0 - 50.0 * u; }, 100.0, "decreasing",
      nonmono);
  EXPECT_TRUE(nonmono.Has(AuditClass::kPowerModel)) << nonmono.ToString();

  AuditReport negative;
  auditor.AuditPowerCurve([](double u) { return 50.0 * u - 25.0; }, 100.0,
                          "negative-idle", negative);
  EXPECT_TRUE(negative.Has(AuditClass::kPowerModel)) << negative.ToString();

  AuditReport overmax;
  auditor.AuditPowerCurve([](double u) { return 120.0 * u; }, 100.0,
                          "exceeds-max", overmax);
  EXPECT_TRUE(overmax.Has(AuditClass::kPowerModel)) << overmax.ToString();

  AuditReport nan;
  auditor.AuditPowerCurve(
      [](double u) {
        return u > 0.5 ? std::numeric_limits<double>::quiet_NaN() : 10.0;
      },
      100.0, "nan", nan);
  EXPECT_TRUE(nan.Has(AuditClass::kPowerModel)) << nan.ToString();
}

TEST(InvariantAuditor, ReportCapsFindingsPerClass) {
  TestState st = MakePlacedState();
  AuditOptions opts;
  opts.max_findings_per_class = 2;
  for (auto& s : st.placement.server_of) s = ServerId{4242};  // all invalid
  const AuditReport report = InvariantAuditor(opts).AuditAll(ViewOf(st));
  EXPECT_EQ(report.CountFor(AuditClass::kConservation), 2)
      << report.ToString();
}

TEST(InvariantAuditor, ReportToStringMentionsClassAndSeverity) {
  TestState st = MakePlacedState();
  st.placement.server_of[0] = ServerId{9999};
  const AuditReport report = InvariantAuditor().AuditAll(ViewOf(st));
  const std::string text = report.ToString();
  EXPECT_NE(text.find("error"), std::string::npos) << text;
  EXPECT_NE(text.find("conservation"), std::string::npos) << text;
}

// The randomized property: valid states audit clean; a randomly chosen
// corruption from each class is always caught, and always attributed to the
// right invariant class.
TEST(InvariantAuditorProperty, RandomCorruptionsAreAlwaysCaught) {
  Rng rng(0xad17);
  for (int round = 0; round < 40; ++round) {
    TestState st = MakePlacedState(rng.NextU64() | 1);
    const InvariantAuditor auditor;
    const AuditReport clean = auditor.AuditAll(ViewOf(st));
    ASSERT_EQ(clean.errors(), 0) << clean.ToString();

    const auto pick = static_cast<int>(rng.NextBelow(6));
    AuditClass expected = AuditClass::kConservation;
    switch (pick) {
      case 0: {  // out-of-range server
        const auto i = rng.NextBelow(st.placement.server_of.size());
        st.placement.server_of[i] =
            ServerId{st.topo.num_servers() + static_cast<int>(rng.NextBelow(50))};
        expected = AuditClass::kConservation;
        break;
      }
      case 1: {  // phantom placement
        const auto i = rng.NextBelow(st.active.size());
        st.active[i] = 0;
        expected = AuditClass::kConservation;
        break;
      }
      case 2: {  // negative demand
        const auto i = rng.NextBelow(st.demands.size());
        st.demands[i].net_mbps = -1.0 - rng.Uniform(0.0, 10.0);
        expected = AuditClass::kConservation;
        break;
      }
      case 3: {  // capacity overflow
        for (auto& d : st.demands) d = d * 20.0;
        for (auto& s : st.placement.server_of) s = ServerId{0};
        expected = AuditClass::kCapacity;
        break;
      }
      case 4: {  // over-reserved uplink
        const auto leaves = st.topo.NodesAtLevel(1);
        const NodeId leaf = leaves[rng.NextBelow(leaves.size())];
        st.topo.Reserve(leaf, st.topo.uplink_capacity(leaf) +
                                  rng.Uniform(1.0, 1000.0));
        expected = AuditClass::kBandwidth;
        break;
      }
      case 5: {  // stale cached depth
        const NodeId n{static_cast<int>(
            rng.NextBelow(static_cast<std::uint64_t>(st.topo.num_nodes())))};
        CorruptDepth(st.topo, n, rng.NextBelow(2) == 0 ? -1 : 1);
        expected = AuditClass::kTopology;
        break;
      }
    }
    const AuditReport corrupted = auditor.AuditAll(ViewOf(st));
    EXPECT_TRUE(corrupted.Has(expected))
        << "round " << round << " corruption " << pick << ":\n"
        << corrupted.ToString();
    EXPECT_GT(corrupted.errors(), 0);
  }
}

// --- integration hooks ------------------------------------------------------

TEST(AuditHooks, EpochControllerAccumulatesCleanReport) {
  TestState st = MakePlacedState();
  EpochController controller(std::make_unique<GoldilocksScheduler>(),
                             st.topo);
  controller.EnableAudit();
  controller.Step(st.workload, st.demands, st.active);
  controller.Step(st.workload, st.demands, st.active);
  EXPECT_EQ(controller.audit_report().errors(), 0)
      << controller.audit_report().ToString();
}

TEST(AuditHooks, ExperimentRunnerAuditsEveryEpoch) {
  TwitterScenarioOptions scenario_opts;
  scenario_opts.num_containers = 48;
  scenario_opts.num_epochs = 4;
  const auto scenario = MakeTwitterCachingScenario(scenario_opts);
  const Topology topo = Topology::Testbed16();
  RunnerOptions opts;
  opts.audit = true;
  const ExperimentRunner runner(*scenario, topo, opts);
  GoldilocksScheduler scheduler;
  const ExperimentResult result = runner.Run(scheduler);
  ASSERT_EQ(result.epochs.size(), 4u);
  // Goldilocks' stability ceiling deliberately lets groups drift past the
  // 0.70 packing ceiling between re-placements, so PEE-cap *warnings* are
  // legitimate; errors are not.
  EXPECT_EQ(result.audit.errors(), 0) << result.audit.ToString();
  std::size_t per_epoch_total = 0;
  for (const auto& epoch : result.epochs) {
    per_epoch_total += static_cast<std::size_t>(epoch.audit_findings);
  }
  EXPECT_EQ(per_epoch_total, result.audit.findings.size());
}

}  // namespace
}  // namespace gl
