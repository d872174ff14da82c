#include "core/goldilocks.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/stable_map.h"
#include "common/state_hash.h"
#include "core/virtual_cluster.h"
#include "graph/incremental.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gl {

namespace {

obs::Counter& PeeCapRejections() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "goldilocks.pee_cap_rejections", obs::MetricKind::kDeterministic);
  return c;
}

// Per-dimension packing ceiling: CPU and network stop at the PEE point,
// memory at its own headroom ceiling.
Resource CeilingFor(const Resource& capacity, const GoldilocksOptions& opts) {
  return Resource{.cpu = capacity.cpu * opts.pee_utilization,
                  .mem_gb = capacity.mem_gb * opts.memory_ceiling,
                  .net_mbps = capacity.net_mbps * opts.pee_utilization};
}

// During partitioning the network dimension is checked loosely: min-cut
// grouping makes most of a group's traffic internal (it never touches the
// NIC once colocated), so the exact NIC check is done afterwards on the
// *effective* demand. The relaxation only prevents absurdly network-heavy
// groups from forming in the first place.
constexpr double kPartitionNetRelax = 8.0;

std::uint64_t HashActiveMask(std::span<const std::uint8_t> active) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const auto a : active) {
    h ^= a;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

struct GoldilocksScheduler::PartitionCache {
  // Built on the first Place() for a workload, rebuilt when the workload
  // object changes (DESIGN.md §11).
  std::optional<WorkloadGraph> graph;
  EpochGraph epoch;  // per-repartition compaction, storage reused
  const Workload* workload = nullptr;
  std::uint64_t active_hash = 0;
  int epochs_since_partition = 0;
  std::vector<std::vector<ContainerId>> groups;  // in locality order
  std::vector<std::string> paths;                // recursion path per group
  // WorkloadGraph::ExternalFractions of `groups`; empty until the grouping
  // is first reused, cleared whenever `groups` or `graph` changes.
  std::vector<double> fraction;
  // Server each group landed on last epoch (stability across reuse).
  std::vector<ServerId> group_server;
};

GoldilocksScheduler::GoldilocksScheduler(GoldilocksOptions opts)
    : opts_(std::move(opts)), cache_(std::make_unique<PartitionCache>()) {}

GoldilocksScheduler::~GoldilocksScheduler() = default;

std::uint64_t GoldilocksScheduler::StateDigest() const {
  StateHasher h;
  h.MixU64(cache_->active_hash);
  h.MixI32(cache_->epochs_since_partition);
  h.MixU64(cache_->groups.size());
  for (const auto& group : cache_->groups) {
    h.MixU64(group.size());
    for (const auto c : group) h.MixId(c);
  }
  for (const auto& path : cache_->paths) {
    h.MixU64(path.size());
    for (const char ch : path) h.MixU64(static_cast<unsigned char>(ch));
  }
  for (const auto s : cache_->group_server) h.MixId(s);
  return h.digest();
}

const std::vector<std::vector<ContainerId>>&
GoldilocksScheduler::PartitionContainers(const SchedulerInput& input,
                                         const WorkloadGraph& graph) {
  const auto& topo = *input.topology;
  const Resource avg_cap = topo.average_server_capacity();
  const Resource ceiling = CeilingFor(avg_cap, opts_);
  MembershipStamp stamp(input.workload->containers.size());

  // Reuse the cached grouping when the container universe is unchanged, the
  // repartition interval has not elapsed, and no group outgrew a server.
  const std::uint64_t active_hash = HashActiveMask(input.active);
  const bool universe_unchanged = cache_->workload == input.workload &&
                                  cache_->active_hash == active_hash &&
                                  !cache_->groups.empty();
  if (universe_unchanged &&
      cache_->epochs_since_partition + 1 < opts_.repartition_interval) {
    // Correlated bursts swing group demands ±25% between epochs; migrating
    // everything every epoch to chase them defeats the purpose of epoch
    // caching (Sec. IV-C, migration cost). Keep the grouping unless some
    // group has drifted grossly past a server — placement spills moderate
    // overflow container-by-container.
    const Resource drift_limit = ceiling * 1.5;
    if (cache_->fraction.empty()) {
      graph.ExternalFractions(cache_->groups, stamp, cache_->fraction);
    }
    bool acceptable = true;
    for (const auto& group : cache_->groups) {
      if (!ColocatedDemand(group, input.demands, cache_->fraction)
               .FitsIn(drift_limit)) {
        acceptable = false;
        break;
      }
    }
    if (acceptable) {
      static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
          "goldilocks.partition_cache_hits", obs::MetricKind::kDeterministic);
      hits.Increment();
      ++cache_->epochs_since_partition;
      return cache_->groups;
    }
  }
  obs::TraceSpan span("goldilocks.partition",
                      static_cast<std::int64_t>(
                          input.workload->containers.size()));

  // --- full re-partition -----------------------------------------------------
  EpochGraph& cg = cache_->epoch;
  graph.Compact(input.demands, input.active, avg_cap, cg);
  // Groups are sized against a margin-reduced ceiling so they survive
  // epoch-to-epoch demand growth without a full repartition.
  const Resource group_ceiling = ceiling * (1.0 - opts_.group_headroom);
  Resource relaxed = group_ceiling;
  relaxed.net_mbps *= kPartitionNetRelax;
  const auto fits = [&relaxed](const Resource& demand, int count) {
    (void)count;
    const bool ok = demand.FitsIn(relaxed);
    // Every "group too big for the PEE-capped ceiling" verdict forces
    // another bisection level — the count explains recursion depth.
    if (!ok) PeeCapRejections().Increment();
    return ok;
  };
  // Server-capacity units of a group: how many ceiling-fulls its demand is
  // worth (network relaxed as above). Guides proportional splits so the
  // final groups fill servers tightly.
  const auto units = [&relaxed](const Resource& demand) {
    double u = 0.0;
    if (relaxed.cpu > 0) u = std::max(u, demand.cpu / relaxed.cpu);
    if (relaxed.mem_gb > 0) u = std::max(u, demand.mem_gb / relaxed.mem_gb);
    if (relaxed.net_mbps > 0) {
      u = std::max(u, demand.net_mbps / relaxed.net_mbps);
    }
    return u;
  };
  std::vector<std::vector<ContainerId>> groups;
  std::vector<std::string> paths;
  // Per-container server of the grouping being repaired; empty unless an
  // incremental repair runs below. Lets the final groups inherit last
  // epoch's servers so the placement stability ceiling can actually hold
  // them in place — without it every repartition repacks from a blank
  // slate and even a repair that moved a handful of vertices migrates
  // most containers.
  std::vector<ServerId> prev_server_of;

  const bool can_repair = opts_.incremental_repartition &&
                          cache_->workload == input.workload &&
                          !cache_->groups.empty();
  if (can_repair) {
    // Repair the previous grouping instead of relabelling from scratch.
    // Vertices map to their old group index (or -1 if newly active).
    std::vector<int> container_to_old(
        input.workload->containers.size(), -1);
    for (std::size_t gi = 0; gi < cache_->groups.size(); ++gi) {
      for (const auto c : cache_->groups[gi]) {
        container_to_old[static_cast<std::size_t>(c.value())] =
            static_cast<int>(gi);
      }
    }
    if (cache_->group_server.size() == cache_->groups.size()) {
      prev_server_of.assign(input.workload->containers.size(),
                            ServerId::invalid());
      for (std::size_t gi = 0; gi < cache_->groups.size(); ++gi) {
        for (const auto c : cache_->groups[gi]) {
          prev_server_of[static_cast<std::size_t>(c.value())] =
              cache_->group_server[gi];
        }
      }
    }
    std::vector<int> previous(
        static_cast<std::size_t>(cg.graph.num_vertices()), -1);
    for (VertexIndex v = 0; v < cg.graph.num_vertices(); ++v) {
      previous[static_cast<std::size_t>(v)] = container_to_old[
          static_cast<std::size_t>(
              cg.vertex_to_container[static_cast<std::size_t>(v)].value())];
    }
    IncrementalOptions iopts;
    iopts.partition = opts_.partition;
    const auto repaired =
        IncrementalRepartition(cg.graph, cg.demands, previous, fits, iopts);

    // Rebuild member lists; each new group inherits the recursion path of
    // the old group contributing most of its members (fresh groups sort
    // last via a '~' sentinel, which is > '0'/'1').
    groups.assign(static_cast<std::size_t>(repaired.num_groups), {});
    std::vector<std::unordered_map<int, int>> votes(
        static_cast<std::size_t>(repaired.num_groups));
    for (VertexIndex v = 0; v < cg.graph.num_vertices(); ++v) {
      const int gid = repaired.group_of[static_cast<std::size_t>(v)];
      groups[static_cast<std::size_t>(gid)].push_back(
          cg.vertex_to_container[static_cast<std::size_t>(v)]);
      const int old = previous[static_cast<std::size_t>(v)];
      if (old >= 0) ++votes[static_cast<std::size_t>(gid)][old];
    }
    paths.assign(static_cast<std::size_t>(repaired.num_groups), {});
    for (int gid = 0; gid < repaired.num_groups; ++gid) {
      // Sorted snapshot: vote ties must resolve to the lowest old group id,
      // not whichever hash bucket comes first.
      int best_old = -1, best_votes = 0;
      const auto group_votes =
          SortedItems(votes[static_cast<std::size_t>(gid)]);
      for (const auto& [old, n] : group_votes) {
        if (n > best_votes) {
          best_votes = n;
          best_old = old;
        }
      }
      auto& path = paths[static_cast<std::size_t>(gid)];
      if (best_old >= 0) {
        path = cache_->paths[static_cast<std::size_t>(best_old)];
      } else {
        path.assign(1, '~');
        path += std::to_string(gid);
      }
    }
    // Locality order: stable sort by inherited path.
    std::vector<std::size_t> idx(groups.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a,
                                                 std::size_t b) {
      return paths[a] < paths[b];
    });
    std::vector<std::vector<ContainerId>> g2;
    std::vector<std::string> p2;
    g2.reserve(groups.size());
    p2.reserve(paths.size());
    for (const auto i : idx) {
      g2.push_back(std::move(groups[i]));
      p2.push_back(std::move(paths[i]));
    }
    groups = std::move(g2);
    paths = std::move(p2);
  } else {
    const RecursivePartitionResult part =
        RecursivePartition(cg.graph, cg.demands, fits, opts_.partition, units);

    // Groups in locality order, as container-id lists.
    const std::vector<int> order = GroupsInLocalityOrder(part);
    std::vector<int> rank(static_cast<std::size_t>(part.num_groups));
    for (std::size_t i = 0; i < order.size(); ++i) {
      rank[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
    }
    groups.assign(static_cast<std::size_t>(part.num_groups), {});
    paths.assign(static_cast<std::size_t>(part.num_groups), {});
    for (VertexIndex v = 0; v < cg.graph.num_vertices(); ++v) {
      const int g = part.group_of[static_cast<std::size_t>(v)];
      groups[static_cast<std::size_t>(rank[static_cast<std::size_t>(g)])]
          .push_back(cg.vertex_to_container[static_cast<std::size_t>(v)]);
    }
    for (int g = 0; g < part.num_groups; ++g) {
      paths[static_cast<std::size_t>(rank[static_cast<std::size_t>(g)])] =
          part.group_path[static_cast<std::size_t>(g)];
    }
  }

  // --- refinement: enforce the exact ceiling on *effective* demand -----------
  // A group that passed the relaxed partition check may still exceed the
  // NIC (or, after demand growth, CPU) once colocated; bisect it further.
  CsrGraph sub;
  std::vector<VertexIndex> remap;
  static obs::Counter& refine_bisects =
      obs::MetricsRegistry::Global().GetCounter(
          "goldilocks.refine_bisections", obs::MetricKind::kDeterministic);
  for (std::size_t gi = 0; gi < groups.size();) {
    const Resource eff =
        graph.EffectiveDemand(groups[gi], input.demands, stamp);
    if (eff.FitsIn(group_ceiling) || groups[gi].size() <= 1) {
      ++gi;
      continue;
    }
    // Bisect this group's induced sub-view.
    std::vector<VertexIndex> verts;
    verts.reserve(groups[gi].size());
    for (const auto c : groups[gi]) {
      verts.push_back(
          cg.container_to_vertex[static_cast<std::size_t>(c.value())]);
    }
    sub.BuildInduced(cg.graph, verts, remap);
    PartitionOptions popts = opts_.partition;
    popts.seed ^= 0x9e3779b97f4a7c15ULL + gi;
    // Carve off one ceiling-full per split so the survivor fills a server.
    const double over =
        std::max({eff.cpu / std::max(group_ceiling.cpu, 1e-9),
                  eff.mem_gb / std::max(group_ceiling.mem_gb, 1e-9),
                  eff.net_mbps / std::max(group_ceiling.net_mbps, 1e-9)});
    const double fraction =
        std::clamp(std::ceil(over / 2.0) / std::max(over, 1.0 + 1e-9), 0.25,
                   0.75);
    refine_bisects.Increment();
    const Bisection bis = Bisect(sub, popts, fraction);
    std::vector<ContainerId> left, right;
    for (std::size_t v = 0; v < groups[gi].size(); ++v) {
      (bis.side[v] == 0 ? left : right).push_back(groups[gi][v]);
    }
    if (left.empty() || right.empty()) {
      // Degenerate bisection: force an arbitrary split so we terminate.
      left.assign(groups[gi].begin(),
                  groups[gi].begin() +
                      static_cast<std::ptrdiff_t>(groups[gi].size() / 2));
      right.assign(groups[gi].begin() +
                       static_cast<std::ptrdiff_t>(groups[gi].size() / 2),
                   groups[gi].end());
    }
    const std::string base_path = paths[gi];
    groups[gi] = std::move(left);
    paths[gi] = base_path + '0';
    groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(gi) + 1,
                  std::move(right));
    paths.insert(paths.begin() + static_cast<std::ptrdiff_t>(gi) + 1,
                 base_path + '1');
    // Re-check the (smaller) group at gi on the next loop iteration.
  }

  // --- merge siblings that jointly fit (halving leaves servers half-empty) ---
  // Groups carrying replicas of the same service must stay apart (the whole
  // point of the negative edges), so merges that reunite a replica set are
  // rejected.
  auto replica_sets_of = [&](const std::vector<ContainerId>& g) {
    std::vector<GroupId> sets;
    for (const auto c : g) {
      const auto rs = input.workload->containers[
          static_cast<std::size_t>(c.value())].replica_set;
      if (rs.valid()) sets.push_back(rs);
    }
    std::sort(sets.begin(), sets.end());
    sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
    return sets;
  };
  auto share_replica_set = [&](const std::vector<ContainerId>& a,
                               const std::vector<ContainerId>& b) {
    const auto sa = replica_sets_of(a);
    if (sa.empty()) return false;
    const auto sb = replica_sets_of(b);
    for (const auto s : sa) {
      if (std::binary_search(sb.begin(), sb.end(), s)) return true;
    }
    return false;
  };
  if (opts_.merge_sibling_groups) {
    bool merged = true;
    while (merged) {
      merged = false;
      for (std::size_t i = 0; i + 1 < groups.size(); ++i) {
        const std::string& pa = paths[i];
        const std::string& pb = paths[i + 1];
        const bool siblings =
            pa.size() == pb.size() && !pa.empty() &&
            pa.compare(0, pa.size() - 1, pb, 0, pb.size() - 1) == 0;
        if (!siblings) continue;
        if (share_replica_set(groups[i], groups[i + 1])) continue;
        std::vector<ContainerId> combined = groups[i];
        combined.insert(combined.end(), groups[i + 1].begin(),
                        groups[i + 1].end());
        if (!graph.EffectiveDemand(combined, input.demands, stamp)
                 .FitsIn(group_ceiling)) {
          continue;
        }
        static obs::Counter& merges = obs::MetricsRegistry::Global().GetCounter(
            "goldilocks.sibling_merges", obs::MetricKind::kDeterministic);
        merges.Increment();
        groups[i] = std::move(combined);
        paths[i] = pa.substr(0, pa.size() - 1);
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        paths.erase(paths.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        merged = true;
        break;
      }
    }
  }

  cache_->workload = input.workload;
  cache_->active_hash = active_hash;
  cache_->epochs_since_partition = 0;
  cache_->groups = std::move(groups);
  cache_->paths = std::move(paths);
  cache_->fraction.clear();
  cache_->group_server.assign(cache_->groups.size(), ServerId::invalid());
  if (!prev_server_of.empty()) {
    // Majority vote over members' previous servers (ties to the lowest
    // server id). Placement treats the result as a preference, not a
    // booking: if two groups inherit one server, whichever places first
    // keeps it and the other falls through to first-fit.
    for (std::size_t gi = 0; gi < cache_->groups.size(); ++gi) {
      std::unordered_map<int, int> votes;
      for (const auto c : cache_->groups[gi]) {
        const ServerId s = prev_server_of[static_cast<std::size_t>(c.value())];
        if (s.valid()) ++votes[s.value()];
      }
      int best_server = -1;
      int best_votes = 0;
      for (const auto& [server, n] : SortedItems(votes)) {
        if (n > best_votes) {
          best_votes = n;
          best_server = server;
        }
      }
      if (best_server >= 0) cache_->group_server[gi] = ServerId(best_server);
    }
  }
  return cache_->groups;
}

Placement GoldilocksScheduler::AssignGroupsSymmetric(
    const SchedulerInput& input,
    const std::vector<std::vector<ContainerId>>& groups,
    const WorkloadGraph& graph) const {
  const auto& topo = *input.topology;
  PackingState state(topo);
  Placement p;
  p.server_of.assign(input.workload->containers.size(), ServerId::invalid());

  MembershipStamp stamp(input.workload->containers.size());

  std::vector<ServerId> server_order = topo.ServersUnder(topo.root());

  std::vector<std::size_t> group_order(groups.size());
  std::iota(group_order.begin(), group_order.end(), 0);
  if (!opts_.locality_order) {
    // Ablation: identical groups, identical packing ceiling, but the
    // recursion-tree adjacency is destroyed by a deterministic shuffle.
    Rng rng(opts_.partition.seed ^ 0xab1a7e);
    for (std::size_t i = group_order.size(); i > 1; --i) {
      std::swap(group_order[i - 1], group_order[rng.NextBelow(i)]);
    }
  }

  const bool use_preferred =
      cache_->group_server.size() == groups.size();

  // Fault domains (Sec. IV-C): groups carrying the same replica set must
  // land in different racks when possible, different servers at minimum.
  std::vector<std::vector<GroupId>> group_sets(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const auto c : groups[g]) {
      const auto rs = input.workload->containers[
          static_cast<std::size_t>(c.value())].replica_set;
      if (rs.valid()) group_sets[g].push_back(rs);
    }
    std::sort(group_sets[g].begin(), group_sets[g].end());
    group_sets[g].erase(
        std::unique(group_sets[g].begin(), group_sets[g].end()),
        group_sets[g].end());
  }
  std::unordered_map<int, std::vector<GroupId>> rack_sets;    // rack node →
  std::unordered_map<int, std::vector<GroupId>> server_sets;  // server id →
  auto domain_conflict = [](const std::vector<GroupId>& a,
                            const std::vector<GroupId>& b) {
    for (const auto s : a) {
      if (std::binary_search(b.begin(), b.end(), s)) return true;
    }
    return false;
  };
  // pass 0: rack-level anti-affinity; pass 1: server-level; pass 2: none.
  auto allowed = [&](std::size_t gi, ServerId s, int pass) {
    if (group_sets[gi].empty() || pass >= 2) return true;
    const auto sit = server_sets.find(s.value());
    if (sit != server_sets.end() &&
        domain_conflict(group_sets[gi], sit->second)) {
      return false;
    }
    if (pass == 0) {
      const NodeId rack = topo.AncestorAt(topo.server_node(s), 1);
      const auto rit = rack_sets.find(rack.value());
      if (rit != rack_sets.end() &&
          domain_conflict(group_sets[gi], rit->second)) {
        return false;
      }
    }
    return true;
  };

  // Books the group's *effective* demand `eff`: colocated traffic never
  // hits the NIC. CPU and memory are booked per container (exact).
  auto place_on = [&](const std::vector<ContainerId>& group,
                      const Resource& eff, ServerId s, std::size_t gi) {
    state.Add(s, eff);
    for (const auto c : group) {
      p.server_of[static_cast<std::size_t>(c.value())] = s;
    }
    if (use_preferred) cache_->group_server[gi] = s;
    if (!group_sets[gi].empty()) {
      auto& ss = server_sets[s.value()];
      ss.insert(ss.end(), group_sets[gi].begin(), group_sets[gi].end());
      std::sort(ss.begin(), ss.end());
      const NodeId rack = topo.AncestorAt(topo.server_node(s), 1);
      auto& rs = rack_sets[rack.value()];
      rs.insert(rs.end(), group_sets[gi].begin(), group_sets[gi].end());
      std::sort(rs.begin(), rs.end());
    }
  };

  std::size_t cursor = 0;  // next server slot in topology order
  for (const auto gi : group_order) {
    const auto& group = groups[gi];
    if (group.empty()) continue;
    const Resource eff =
        graph.EffectiveDemand(group, input.demands, stamp);

    // Stability: keep the group on last epoch's server while the server
    // stays below the stability ceiling — moderate growth is exactly what
    // the PEE headroom is for; migrating to restore the 70% target would
    // cost more than it saves (Sec. IV-C). Memory does not drift, so only
    // CPU/network are capped.
    if (use_preferred && cache_->group_server[gi].valid()) {
      const ServerId prev = cache_->group_server[gi];
      const Resource& cap = topo.server_capacity(prev);
      const Resource stay_limit{
          .cpu = cap.cpu * opts_.stability_ceiling,
          .mem_gb = cap.mem_gb,
          .net_mbps = cap.net_mbps * opts_.stability_ceiling};
      if ((state.load(prev) + eff).FitsIn(stay_limit) &&
          allowed(gi, prev, 0)) {
        place_on(group, eff, prev, gi);
        continue;
      }
    }

    // Walk servers from the cursor (left-most first-fit), relaxing the
    // fault-domain constraint pass by pass only if nothing qualifies.
    ServerId chosen = ServerId::invalid();
    for (int pass = 0; pass < 3 && !chosen.valid(); ++pass) {
      for (std::size_t k = 0; k < server_order.size(); ++k) {
        const ServerId s = server_order[(cursor + k) % server_order.size()];
        if (!allowed(gi, s, pass)) continue;
        const Resource ceiling = CeilingFor(topo.server_capacity(s), opts_);
        if ((state.load(s) + eff).FitsIn(ceiling)) {
          chosen = s;
          cursor = (cursor + k) % server_order.size();
          break;
        }
      }
      if (group_sets[gi].empty()) break;  // passes only differ for replicas
    }
    if (chosen.valid()) {
      place_on(group, eff, chosen, gi);
      continue;
    }
    // The group fits no single server (demands grew since partitioning, or
    // an oversized singleton): spill container-by-container, first at the
    // PEE ceiling, then at full capacity as a last resort. Spilled
    // containers are alone, so their full network demand applies.
    for (const auto c : group) {
      const auto& d = input.demands[static_cast<std::size_t>(c.value())];
      ServerId fallback = ServerId::invalid();
      for (std::size_t k = 0;
           k < server_order.size() && !fallback.valid(); ++k) {
        const ServerId s = server_order[(cursor + k) % server_order.size()];
        const Resource ceiling = CeilingFor(topo.server_capacity(s), opts_);
        if ((state.load(s) + d).FitsIn(ceiling)) fallback = s;
      }
      for (std::size_t k = 0;
           k < server_order.size() && !fallback.valid(); ++k) {
        const ServerId s = server_order[(cursor + k) % server_order.size()];
        if (state.Fits(s, d, 1.0)) fallback = s;
      }
      if (fallback.valid()) {
        state.Add(fallback, d);
        p.server_of[static_cast<std::size_t>(c.value())] = fallback;
      }
    }
  }
  return p;
}

Placement GoldilocksScheduler::Place(const SchedulerInput& input) {
  GOLDILOCKS_CHECK(input.workload != nullptr && input.topology != nullptr);
  if (!cache_->graph || !cache_->graph->BuiltFrom(*input.workload)) {
    cache_->graph.emplace(*input.workload);
    cache_->fraction.clear();
  }
  const WorkloadGraph& graph = *cache_->graph;
  const auto& groups = PartitionContainers(input, graph);

  // Record the grouping for inspection (Fig. 7).
  last_grouping_.assign(input.workload->containers.size(), -1);
  last_num_groups_ = static_cast<int>(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const auto c : groups[g]) {
      last_grouping_[static_cast<std::size_t>(c.value())] =
          static_cast<int>(g);
    }
  }

  if (opts_.use_virtual_clusters) {
    obs::TraceSpan vc_span("goldilocks.vc_reserve",
                           static_cast<std::int64_t>(groups.size()));
    VirtualClusterOptions vc_opts;
    vc_opts.pee_utilization = opts_.pee_utilization;
    vc_opts.memory_ceiling = opts_.memory_ceiling;
    VirtualClusterPlacer placer(*input.topology, vc_opts);
    return placer.PlaceGroups(groups, input.demands,
                              input.workload->containers.size());
  }
  obs::TraceSpan assign_span("goldilocks.assign_symmetric",
                             static_cast<std::int64_t>(groups.size()));
  return AssignGroupsSymmetric(input, groups, graph);
}

}  // namespace gl
