#include "graph/partitioner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/coarsen.h"
#include "graph/csr.h"
#include "graph/fm.h"
#include "graph/refine.h"
#include "graph/scratch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// The kernel runs entirely on flat CSR storage (graph/csr.h) with reusable
// scratch arenas (graph/scratch.h): coarse levels are written into arena
// storage, the recursion partitions index ranges of one global permutation
// instead of materializing InducedSubgraph copies, and FM maintains gains
// incrementally across passes (graph/fm.h). DESIGN.md §11 documents the
// layout and why determinism survives the rewrite.

namespace gl {
namespace {

// Deterministic decision counters (DESIGN.md §10). Totals are exact at any
// thread count — addition commutes — and hot loops batch into locals so the
// atomic is touched once per call, not per edge.
obs::Counter& CutEdgesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.cut_edges_evaluated", obs::MetricKind::kDeterministic);
  return c;
}

obs::Counter& FmRejectionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.bisection_rejections", obs::MetricKind::kDeterministic);
  return c;
}

obs::Counter& DegenerateSplitsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.degenerate_splits", obs::MetricKind::kDeterministic);
  return c;
}

// Zero-copy subgraph views extracted into scratch (one per recursion split);
// the recursion path builds no Graph objects at all, which the arena test
// checks against graph.induced_subgraph_builds.
obs::Counter& SubgraphViewsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.subgraph_views", obs::MetricKind::kDeterministic);
  return c;
}

// Arena growth events: Resets/splits that actually enlarged a scratch
// buffer. Informational — growth depends on the subproblem schedule, which
// varies with the thread count (each worker warms its own arena).
obs::Counter& ScratchGrowthCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "partition.scratch_grow_events", obs::MetricKind::kInformational);
  return c;
}

// Publishes the memory and pool-utilization telemetry of one partition call
// on the informational side of the registry (never hashed, DESIGN.md §10).
void PublishScratchPeak(std::size_t peak_bytes) {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "partition.scratch_peak_bytes", obs::MetricKind::kInformational);
  g.Set(static_cast<double>(peak_bytes));
}

void PublishPoolStats(const ThreadPoolStats& stats) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Gauge& eff = reg.GetGauge("partition.pool.parallel_efficiency",
                                        obs::MetricKind::kInformational);
  static obs::Gauge& busy = reg.GetGauge("partition.pool.busy_ms",
                                         obs::MetricKind::kInformational);
  static obs::Gauge& idle = reg.GetGauge("partition.pool.idle_ms",
                                         obs::MetricKind::kInformational);
  static obs::Gauge& wait = reg.GetGauge("partition.pool.queue_wait_ms",
                                         obs::MetricKind::kInformational);
  eff.Set(stats.ParallelEfficiency());
  busy.Set(stats.busy_us / 1000.0);
  idle.Set(stats.IdleUs() / 1000.0);
  wait.Set(stats.queue_wait_us / 1000.0);
}

// Coarsening lives in graph/coarsen.{h,cc}: deterministic propose/resolve
// heavy-edge matching plus staged parallel contraction, bit-identical at
// every thread width.

// ---------------------------------------------------------------------------
// Balance bookkeeping for an asymmetric split: side 0 should carry
// `target_fraction` of the total weight, within (1 + tolerance).
// ---------------------------------------------------------------------------
struct BalanceBounds {
  double total = 0.0;
  double target0 = 0.0;
  double lo0 = 0.0;
  double hi0 = 0.0;

  BalanceBounds(double total_weight, double target_fraction, double tol) {
    total = total_weight;
    target0 = total * target_fraction;
    const double hi1 = total * (1.0 - target_fraction) * (1.0 + tol);
    hi0 = std::min(total, total * target_fraction * (1.0 + tol));
    lo0 = std::max(0.0, total - hi1);
    if (lo0 > hi0) lo0 = hi0;  // degenerate tolerance; collapse to a point
  }

  [[nodiscard]] bool Feasible(double w0) const {
    return w0 >= lo0 - 1e-9 && w0 <= hi0 + 1e-9;
  }
  // Distance from the feasible interval (0 when inside).
  [[nodiscard]] double Violation(double w0) const {
    if (w0 < lo0) return lo0 - w0;
    if (w0 > hi0) return w0 - hi0;
    return 0.0;
  }
};

// ---------------------------------------------------------------------------
// Initial partition on the coarsest graph: greedy graph growing. Grows side 0
// from a random seed, always absorbing the frontier vertex that most reduces
// the eventual cut, until side 0 reaches its target weight.
// ---------------------------------------------------------------------------
// Reports the grown region's balance weight through `w0_out` (summed in
// absorption order), so callers skip an O(n) SideWeight0 rescan per trial.
void GrowInitialPartition(const CsrGraph& g, const BalanceBounds& bounds,
                          Rng& rng, PartitionScratch& s,
                          std::vector<std::uint8_t>& side, double* w0_out) {
  const auto n = g.num_vertices();
  const auto sn = static_cast<std::size_t>(n);
  side.assign(sn, 1);
  *w0_out = 0.0;
  if (n == 0) return;

  s.heap.Reset(sn);
  s.in_region.assign(sn, 0);
  s.grow_key.resize(sn);
  double w0 = 0.0;

  const auto absorb = [&](VertexIndex v) {
    s.in_region[static_cast<std::size_t>(v)] = 1;
    side[static_cast<std::size_t>(v)] = 0;
    w0 += g.balance_weight(v);
    s.heap.Invalidate(v);
    const auto [to, ws] = g.arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      const auto u = static_cast<std::size_t>(to[i]);
      if (s.in_region[u]) continue;
      // Edge i flips from region-external to region-internal for to[i].
      s.grow_key[u] += 2.0 * ws[i];
      s.heap.Push(to[i], s.grow_key[u]);
    }
  };

  const auto seed_new_component = [&]() -> bool {
    // All frontier exhausted: jump to a random vertex outside the region.
    s.outside.clear();
    for (VertexIndex v = 0; v < n; ++v) {
      if (!s.in_region[static_cast<std::size_t>(v)]) s.outside.push_back(v);
    }
    if (s.outside.empty()) return false;
    absorb(s.outside[rng.NextBelow(s.outside.size())]);
    return true;
  };

  // Initial gain of v if absorbed = -(its total external weight); seed with
  // that so the heap ordering is correct from the start.
  for (VertexIndex v = 0; v < n; ++v) {
    s.grow_key[static_cast<std::size_t>(v)] = -g.degree_weight(v);
  }

  if (!seed_new_component()) return;
  while (w0 < bounds.target0) {
    VertexIndex v;
    double priority;
    if (s.heap.Pop(&v, &priority)) {
      if (s.in_region[static_cast<std::size_t>(v)]) continue;
      absorb(v);
    } else if (!seed_new_component()) {
      break;
    }
  }
  *w0_out = w0;
}

// ---------------------------------------------------------------------------
// Fiduccia–Mattheyses refinement with rollback to the best prefix. Also
// restores balance when the incoming partition is infeasible (moves that
// reduce the balance violation are allowed regardless of gain).
//
// Gains are computed once (FmEngine::Attach, O(arcs)) and maintained
// incrementally from then on: each move delta-updates only the moved
// vertex's neighborhood, and the rollback replays Flip in reverse, which
// restores the prefix-state gains — so later passes start from maintained
// gains instead of an O(arcs) recompute.
// ---------------------------------------------------------------------------
// Per-vertex multiplicative heap-priority perturbation for FM trials:
// a pure hash of (vertex, trial salt) mapped into [0.9, 1.1). Popping by
// perturbed priority sends each trial down a different hill-climb while the
// engine still prices every move with exact gains — the rollback keeps the
// best prefix by exact cut, so perturbation reorders exploration and never
// mis-prices it. Additive tie-jitter is useless here: continuous edge
// weights make exact gain ties vanishingly rare, so perturbing anything
// less than the relative order of distinct gains leaves every trial walking
// the same trajectory.
double FmPriorityFactor(VertexIndex v, std::uint64_t salt) {
  std::uint64_t x = salt ^ (static_cast<std::uint64_t>(v) *
                            0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return 0.9 + 0.2 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

// The pass loop proper, on caller-supplied working state so the classic
// single-stream path and every concurrent multi-trial instance share one
// implementation. `seed_order` reorders the seeding scan (null = ascending
// ids) and `perturb_salt`, when set, scales every heap priority by
// FmPriorityFactor — move bookkeeping always uses the engine's exact gains,
// so trials explore different move orders while pricing every cut
// identically.
void FmPassLoop(const CsrGraph& g, const BalanceBounds& bounds,
                const PartitionOptions& opts, int max_passes,
                FmEngine& engine, std::vector<std::uint8_t>& side,
                double& cut, double& w0, LazyMaxHeap& heap,
                std::vector<std::uint8_t>& moved,
                std::vector<VertexIndex>& move_seq,
                const std::vector<VertexIndex>* seed_order,
                const std::uint64_t* perturb_salt,
                std::uint64_t* moves_rejected) {
  obs::TraceSpan span("partition.refine.fm",
                      static_cast<std::int64_t>(g.num_vertices()));
  const auto n = g.num_vertices();
  const auto sn = static_cast<std::size_t>(n);

  // Cost controls engage only above the coarsening threshold: small graphs
  // are cheap enough to explore exhaustively, and their relative cut swings
  // are large enough that cutting exploration short costs real quality.
  const bool big = n > 2 * kCoarsenTarget;

  for (int pass = 0; pass < max_passes; ++pass) {
    // Boundary seeding: when the balance is feasible, only candidates with
    // positive gain or cut adjacency are worth queueing — the classic
    // boundary-FM move set. A vertex with cross-cut weight has
    // gain(v) + degree(v) = 2*w_cross > 0; one whose move strictly improves
    // the cut has gain(v) > 0. Everything else is interior with nothing to
    // offer at seed time — it enters the heap the moment a neighbor's move
    // makes it relevant. An infeasible balance needs arbitrary vertices to
    // restore it, so restoration passes seed everyone.
    const bool seed_all = bounds.Violation(w0) > 1e-12;
    heap.Reset(sn);
    const auto push = [&](VertexIndex v, double gv) {
      heap.Push(v, perturb_salt != nullptr
                       ? gv * FmPriorityFactor(v, *perturb_salt)
                       : gv);
    };
    const auto push_seed = [&](VertexIndex v) {
      const double gv = engine.gain(v);
      if (seed_all || gv > 1e-12 || gv + g.degree_weight(v) > 1e-12) {
        push(v, gv);
      }
    };
    if (seed_order != nullptr) {
      for (const auto v : *seed_order) push_seed(v);
    } else {
      for (VertexIndex v = 0; v < n; ++v) push_seed(v);
    }

    moved.assign(sn, 0);
    move_seq.clear();
    const double pass_cut = cut;
    const double pass_w0 = w0;
    double best_cut = cut;
    double best_violation = bounds.Violation(w0);
    std::size_t best_prefix = 0;
    int stall = 0;

    VertexIndex v;
    double priority;
    while (heap.Pop(&v, &priority)) {
      if (moved[static_cast<std::size_t>(v)]) continue;
      const double bw = g.balance_weight(v);
      const bool from0 = side[static_cast<std::size_t>(v)] == 0;
      const double new_w0 = from0 ? w0 - bw : w0 + bw;
      const double cur_violation = bounds.Violation(w0);
      const double new_violation = bounds.Violation(new_w0);
      // Permit the move if it stays feasible, or strictly improves an
      // infeasible balance (restoration mode).
      if (new_violation > 1e-12 && new_violation >= cur_violation) {
        ++*moves_rejected;
        continue;
      }

      moved[static_cast<std::size_t>(v)] = 1;
      move_seq.push_back(v);
      cut -= engine.gain(v);
      w0 = new_w0;
      engine.Flip(v);

      // Re-queue the unlocked neighbors at their updated gains; locked
      // neighbors keep exact gains too (Flip maintains them all) but stay
      // out of the heap for this pass.
      const auto to = g.arcs(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        if (!moved[static_cast<std::size_t>(to[i])]) {
          push(to[i], engine.gain(to[i]));
        }
      }

      const double violation = bounds.Violation(w0);
      const bool better =
          (violation < best_violation - 1e-12) ||
          (violation <= best_violation + 1e-12 && cut < best_cut - 1e-12);
      if (better) {
        best_cut = cut;
        best_violation = violation;
        best_prefix = move_seq.size();
        stall = 0;
      } else if (++stall > opts.fm_stall_limit ||
                 (violation <= best_violation + 1e-12 &&
                  cut > best_cut + (big ? 0.10 : 0.35) *
                                       (std::abs(best_cut) + 1.0))) {
        // Give up on a hill-climb that has either stalled or dug itself too
        // far above the best cut seen — prefixes that deep essentially never
        // recover within the stall budget, and every probe move costs a Flip
        // now and another at rollback. Small graphs get a looser leash
        // (their relative cut swings are larger and exploring them is
        // cheap); large graphs cut off at 10%.
        break;
      }
    }

    // Roll back everything after the best prefix; reverse-order Flips
    // restore the prefix gains, so the next pass needs no recompute.
    for (std::size_t i = move_seq.size(); i > best_prefix; --i) {
      const auto u = move_seq[i - 1];
      const double bw = g.balance_weight(u);
      w0 += side[static_cast<std::size_t>(u)] == 0 ? -bw : bw;
      engine.Flip(u);
    }
    cut = best_cut;
    const bool improved = best_cut < pass_cut - 1e-12 ||
                          best_violation < bounds.Violation(pass_w0) - 1e-12;
    if (!improved) break;
  }
}

void FmRefine(const CsrGraph& g, const BalanceBounds& bounds,
              const PartitionOptions& opts, std::vector<std::uint8_t>& side,
              double& cut, double& w0, PartitionScratch& s) {
  FmEngine engine;
  engine.Attach(g, &side, &s.gain);
  // The Attach scan prices the incoming assignment; the caller's stale (or
  // carried) value is replaced wholesale, which also re-canonicalizes any
  // accumulated rounding drift once per level.
  cut = engine.initial_cut();
  std::uint64_t moves_rejected = 0;
  FmPassLoop(g, bounds, opts, opts.refine_passes, engine, side, cut, w0,
             s.heap, s.moved, s.move_seq, /*seed_order=*/nullptr,
             /*perturb_salt=*/nullptr, &moves_rejected);
  CutEdgesCounter().Add(engine.arcs_scanned());
  FmRejectionsCounter().Add(moves_rejected);
}

// ---------------------------------------------------------------------------
// Multi-trial FM (DESIGN.md §16): on levels big enough to matter, run
// opts.fm_trials independent FM instances from the same projected
// assignment — trial t seeds its heap in an order shuffled by the keyed
// sub-stream Fork(t), with a tiny deterministic tie-perturbation on seed
// priorities — and adopt the canonical winner (graph/refine.h). Gains for
// the common starting point are computed once by a chunked scan whose
// per-chunk partial cuts fold in chunk order (one canonical summation order
// at every width); each trial then copies that state and maintains it
// incrementally. Trials are embarrassingly parallel: every mutable buffer is
// trial-owned, so the batch runs on the pool when one is available and
// back-to-back otherwise, with bit-identical results either way.
// ---------------------------------------------------------------------------
void FmRefineMultiTrial(const CsrGraph& g, const BalanceBounds& bounds,
                        const PartitionOptions& opts, ThreadPool* pool,
                        std::uint64_t level_salt,
                        std::vector<std::uint8_t>& side, double& cut,
                        double& w0, PartitionScratch& s) {
  const auto n = g.num_vertices();
  if (n < kParallelMinVertices || opts.fm_trials <= 1) {
    FmRefine(g, bounds, opts, side, cut, w0, s);
    return;
  }
  const auto sn = static_cast<std::size_t>(n);

  // Shared gain precompute over the projected assignment. Chunk c's partial
  // cross-weight lands in chunk_partials[c]; the serial fold below visits
  // chunks in index order, so the starting cut is the same double at every
  // thread width (DESIGN.md §9).
  s.gain.resize(sn);
  const std::size_t chunks =
      (sn + kPartitionChunkGrain - 1) / kPartitionChunkGrain;
  s.chunk_partials.assign(chunks, 0.0);
  ForPartitionChunks(
      pool, sn, [&](int, std::size_t begin, std::size_t end) {
        double cross = 0.0;
        for (std::size_t sv = begin; sv < end; ++sv) {
          GOLDILOCKS_CHECK(sv < sn);
          const auto v = static_cast<VertexIndex>(sv);
          const auto [to, ws] = g.arc_range(v);
          double gv = 0.0;
          for (std::size_t i = 0; i < to.size(); ++i) {
            const bool is_cross =
                side[sv] != side[static_cast<std::size_t>(to[i])];
            gv += is_cross ? ws[i] : -ws[i];
          }
          s.gain[sv] = gv;
          cross += gv + g.degree_weight(v);
        }
        s.chunk_partials[begin / kPartitionChunkGrain] = cross;
      });
  double cross_total = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) cross_total += s.chunk_partials[c];
  const double cut0 = cross_total / 4.0;

  const auto trials = static_cast<std::size_t>(opts.fm_trials);
  if (s.fm_trials.size() < trials) s.fm_trials.resize(trials);
  s.trial_outcomes.resize(trials);
  // Every trial gets the full pass budget: trials exist to buy quality with
  // width, and a trial cut short mid-climb is worth little. The extra work
  // runs on otherwise-idle workers — the level's critical path is still one
  // trial's pass loop — and at width 1 it is the price of the quality the
  // winner fold buys back.
  const int passes_per_trial = opts.refine_passes;
  const Rng trial_base(level_salt);

  const auto run_trial = [&](std::size_t t) {
    // Trials are parallel lanes whenever a pool is attached: the profiler
    // treats them as alternatives even when a narrow machine ran them
    // back-to-back on one worker.
    obs::TraceSpan trial_span("partition.refine.trial",
                              static_cast<std::int64_t>(t),
                              /*parallel_lane=*/pool != nullptr);
    FmTrialScratch& tr = s.fm_trials[t];
    tr.side.assign(side.begin(), side.end());
    tr.gain.assign(s.gain.begin(), s.gain.end());
    FmEngine engine;
    engine.AttachPrecomputed(g, &tr.side, &tr.gain, cut0);
    double trial_cut = cut0;
    double trial_w0 = w0;
    tr.rejections = 0;

    Rng rng = trial_base.Fork(static_cast<std::uint64_t>(t));
    tr.seed_order.resize(sn);
    std::iota(tr.seed_order.begin(), tr.seed_order.end(), 0);
    if (t > 0) {
      for (std::size_t i = sn; i > 1; --i) {
        std::swap(tr.seed_order[i - 1], tr.seed_order[rng.NextBelow(i)]);
      }
    }
    // Trial 0 is the un-perturbed stream (identity order, exact
    // priorities): the winner can only match or improve on classic FM.
    const std::uint64_t trial_salt = rng.NextU64();
    FmPassLoop(g, bounds, opts, passes_per_trial, engine, tr.side, trial_cut,
               trial_w0, tr.heap, tr.moved, tr.move_seq, &tr.seed_order,
               t > 0 ? &trial_salt : nullptr, &tr.rejections);
    tr.cut = trial_cut;
    tr.w0 = trial_w0;
    tr.arcs_scanned = engine.arcs_scanned();
  };
  if (pool != nullptr) {
    pool->ParallelFor(trials, run_trial);
  } else {
    for (std::size_t t = 0; t < trials; ++t) run_trial(t);
  }

  // Canonical serial fold over the trial outcomes; counters accumulate in
  // trial order, and the shared precompute scan is charged exactly once —
  // the deterministic totals never depend on scheduling or width.
  for (std::size_t t = 0; t < trials; ++t) {
    s.trial_outcomes[t] = {bounds.Violation(s.fm_trials[t].w0),
                           s.fm_trials[t].cut};
  }
  const std::size_t win = PickFmWinner(s.trial_outcomes);
  const FmTrialScratch& winner = s.fm_trials[win];
  side.assign(winner.side.begin(), winner.side.end());
  cut = winner.cut;
  w0 = winner.w0;
  std::uint64_t arcs = g.num_arcs();
  std::uint64_t rejections = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    arcs += s.fm_trials[t].arcs_scanned;
    rejections += s.fm_trials[t].rejections;
  }
  CutEdgesCounter().Add(arcs);
  FmRejectionsCounter().Add(rejections);
}

// True when some arc of `g` carries a negative (anti-affinity) weight.
bool HasNegativeArc(const CsrGraph& g) {
  for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
    for (const double w : g.arc_weights(v)) {
      if (w < 0.0) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Multilevel bisection on a CSR graph, entirely in arena storage: coarsen
// into s.levels, grow + refine on the coarsest, project back through the
// level maps refining at every level. Writes the finest-level sides into
// `side_out` (any scratch buffer other than s.side).
// ---------------------------------------------------------------------------

struct CsrBisection {
  double cut_weight = 0.0;
  double w0 = 0.0;
  bool balanced = false;
};

CsrBisection BisectCsr(const CsrGraph& g, const PartitionOptions& opts,
                       double target_fraction, ThreadPool* pool,
                       PartitionScratch& s,
                       std::vector<std::uint8_t>& side_out) {
  const auto n = g.num_vertices();
  CsrBisection out;
  side_out.assign(static_cast<std::size_t>(n), 0);
  if (n <= 1) {
    out.w0 = g.total_balance_weight();
    out.balanced = true;
    return out;
  }

  Rng rng(opts.seed);

  // Levels below the parallel threshold coarsen and refine without the
  // pool: the gate reads the problem size only, so gating changes nothing
  // but scheduling (DESIGN.md §9).
  const auto level_pool = [&](const CsrGraph& level) {
    return level.num_vertices() >= kParallelMinVertices ? pool : nullptr;
  };

  // Coarsen until the target size or the matching stalls (e.g. star graphs):
  // coarsening must shrink meaningfully or refinement costs outweigh the
  // benefit. Levels live in the arena deque, so pointers into it are stable
  // while it grows and storage is reused across calls.
  auto& levels = s.level_chain;
  levels.clear();
  levels.push_back(&g);
  std::size_t li = 0;
  while (levels.back()->num_vertices() > kCoarsenTarget) {
    // One span per level, stall checks included; arg = level index.
    obs::TraceSpan coarsen_span("partition.coarsen",
                                static_cast<std::int64_t>(li));
    if (s.levels.size() <= li) {
      s.levels.emplace_back();
      s.level_maps.emplace_back();
    }
    CsrGraph& coarse = s.levels[li];
    const CsrGraph& fine = *levels.back();
    HeavyEdgeMatch(fine, level_pool(fine), rng, s);
    ContractByMatching(fine, level_pool(fine), coarse, s.level_maps[li], s);
    if (coarse.num_vertices() >
        static_cast<VertexIndex>(0.95 * fine.num_vertices())) {
      break;
    }
    levels.push_back(&coarse);
    ++li;
  }

  // Several growing trials on the coarsest graph; keep the best after a
  // quick refinement.
  const CsrGraph& coarsest = *levels.back();
  const BalanceBounds coarse_bounds(coarsest.total_balance_weight(),
                                    target_fraction, opts.balance_tolerance);
  PartitionOptions quick = opts;
  quick.refine_passes = 2;
  // Trials only rank starting points — the projection sweep below does the
  // real refinement — so cap their hill-climb: on a coarsest graph of ~100
  // vertices a stall budget of 256 means every pass churns the whole graph
  // and rolls most of it back. Never raises the caller's limit.
  quick.fm_stall_limit = std::min(quick.fm_stall_limit, 16);
  // Unbeatable-trial stop (DESIGN.md §11): a later trial wins only with a
  // violation or cut lower by more than the fold's tolerance. Neither goes
  // below zero without a negative arc, so once the ideal outcome {0, 0}
  // no longer beats the best even at zero tolerance, the rest cannot
  // change the result. Their skipped RNG draws are invisible only when no
  // level below draws a salt FmRefineMultiTrial would use.
  const int max_trials = std::max(1, opts.initial_trials);
  const bool salts_unused =
      levels.size() == 1 || opts.fm_trials <= 1 || n < kParallelMinVertices;
  const bool may_stop =
      max_trials > 1 && salts_unused && !HasNegativeArc(coarsest);
  FmTrialOutcome best;
  double best_w0 = 0.0;
  int trials_run = 0;
  {
    obs::TraceSpan initial_span("partition.initial");
    for (int t = 0; t < max_trials; ++t) {
      double w0 = 0.0;
      GrowInitialPartition(coarsest, coarse_bounds, rng, s, s.trial_side,
                           &w0);
      double cut = 0.0;  // FmRefine derives it from the Attach scan
      FmRefine(coarsest, coarse_bounds, quick, s.trial_side, cut, w0, s);
      const FmTrialOutcome outcome{coarse_bounds.Violation(w0), cut};
      if (t == 0 || FmOutcomeBeats(outcome, best)) {
        s.best_side.swap(s.trial_side);
        best = outcome;
        best_w0 = w0;
      }
      trials_run = t + 1;
      if (may_stop && !FmOutcomeBeats(FmTrialOutcome{}, best, /*tol=*/0.0)) {
        break;
      }
    }
    initial_span.set_arg(trials_run);
  }

  // Project through the hierarchy, refining at every level. Each level
  // draws its refinement salt from the bisection's serial stream, so the
  // per-trial sub-streams are a pure function of (seed, level) — never of
  // scheduling.
  s.side.assign(s.best_side.begin(), s.best_side.end());
  double cut = best.cut;
  double w0 = best_w0;
  for (std::size_t lvl = levels.size() - 1; lvl > 0; --lvl) {
    const CsrGraph& fine = *levels[lvl - 1];
    const auto& map = s.level_maps[lvl - 1];
    const auto fn = static_cast<std::size_t>(fine.num_vertices());
    s.fine_side.resize(fn);
    for (std::size_t v = 0; v < fn; ++v) {
      s.fine_side[v] = s.side[static_cast<std::size_t>(map[v])];
    }
    s.side.swap(s.fine_side);
    // Projection preserves both tracked quantities algebraically (coarse
    // balance and arc weights are sums of fine ones), so carry them instead
    // of recomputing O(arcs) per level; the final per-bisection recompute
    // below re-canonicalizes the reported numbers.
    const BalanceBounds bounds(fine.total_balance_weight(), target_fraction,
                               opts.balance_tolerance);
    const std::uint64_t level_salt = rng.NextU64();
    obs::TraceSpan refine_span("partition.refine",
                               static_cast<std::int64_t>(lvl - 1));
    FmRefineMultiTrial(fine, bounds, opts, level_pool(fine), level_salt,
                       s.side, cut, w0, s);
  }

  const BalanceBounds bounds(g.total_balance_weight(), target_fraction,
                             opts.balance_tolerance);
  side_out.assign(s.side.begin(), s.side.end());
  // The tracked values are exact up to summation order: FM maintains both
  // incrementally and re-prices the cut from a full scan at every level's
  // Attach, so a final O(n + arcs) recompute would only reorder the same
  // sums. Tests compare against from-scratch recomputes with tolerances.
  out.cut_weight = cut;
  out.w0 = w0;
  out.balanced = bounds.Feasible(out.w0);
  return out;
}

}  // namespace

Bisection Bisect(const CsrGraph& g, const PartitionOptions& opts,
                 double target_fraction) {
  GOLDILOCKS_CHECK(target_fraction > 0.0 && target_fraction < 1.0);
  Bisection result;
  const auto n = g.num_vertices();
  result.side.assign(static_cast<std::size_t>(n), 0);
  if (n <= 1) {
    result.side_weight[0] = g.total_balance_weight();
    result.balanced = true;
    return result;
  }

  PartitionScratch scratch;
  CsrBisection bis;
  if (opts.threads > 1) {
    // A standalone bisection owns its pool; RecursivePartition threads its
    // own through every split instead. Identical results either way — the
    // pool only changes scheduling, never output (DESIGN.md §9).
    ThreadPool pool(opts.threads);
    bis = BisectCsr(g, opts, target_fraction, &pool, scratch, result.side);
    PublishPoolStats(pool.Stats());
  } else {
    bis = BisectCsr(g, opts, target_fraction, nullptr, scratch, result.side);
  }
  result.cut_weight = bis.cut_weight;
  result.side_weight[0] = bis.w0;
  result.side_weight[1] = g.total_balance_weight() - bis.w0;
  result.balanced = bis.balanced;
  return result;
}

Bisection Bisect(const Graph& g, const PartitionOptions& opts,
                 double target_fraction) {
  CsrGraph csr;
  csr.BuildFrom(g);
  return Bisect(csr, opts, target_fraction);
}

namespace {

// ---------------------------------------------------------------------------
// Zero-copy recursion: one global permutation instead of subgraph copies.
//
// `perm` maps position → vertex id and `where` maps vertex id → position;
// a sub-problem is a contiguous position range [lo, hi). Splitting a range
// stable-partitions its slice of `perm` by bisection side, so a child range
// preserves its parent's relative order — the same vertex order the old
// InducedSubgraph chain produced. CSR views of a range are extracted into
// scratch only for the bisection itself and recycled immediately.
//
// `where` is the one array read across range boundaries (the membership
// test for neighbors), so with a pool it is written by one task while
// others read it. The entries are relaxed atomics: concurrent writers
// only ever move a vertex within their own disjoint range, so a
// racing reader gets either the old or the new position — both on the same
// side of the membership test — and results stay bit-identical at every
// thread count (DESIGN.md §9).
// ---------------------------------------------------------------------------
struct RangeCtx {
  std::span<const Resource> demands;  // per vertex, for leaf emission
  const CsrGraph* csr = nullptr;      // topology for everything else
  const PartitionOptions* opts = nullptr;
  const FitPredicate* fits = nullptr;
  const CapacityUnitsFn* units = nullptr;
  ThreadPool* pool = nullptr;  // RecursivePartition at threads > 1 only
  std::vector<VertexIndex> perm;
  std::vector<std::atomic<VertexIndex>> where;

  [[nodiscard]] VertexIndex PositionOf(VertexIndex v) const {
    return where[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
  }
  void Place(VertexIndex v, std::size_t pos) {
    GOLDILOCKS_CHECK(pos < perm.size());
    perm[pos] = v;
    where[static_cast<std::size_t>(v)].store(static_cast<VertexIndex>(pos),
                                             std::memory_order_relaxed);
  }
};

// CSR view of a position range, extracted into scratch. Local id = position
// - lo, so local order is the range's (stable) order. No Graph objects, no
// per-row allocations once the arena is warm.
void ExtractSub(const RangeCtx& ctx, std::size_t lo, std::size_t hi,
                CsrGraph& sub) {
  GOLDILOCKS_CHECK(lo <= hi && hi <= ctx.perm.size());
  // arg = vertices in the range.
  obs::TraceSpan span("partition.extract", static_cast<std::int64_t>(hi - lo));
  sub.BeginBuild(static_cast<VertexIndex>(hi - lo), 0);
  for (std::size_t pos = lo; pos < hi; ++pos) {
    const auto v = ctx.perm[pos];
    sub.BeginRow(ctx.csr->balance_weight(v));
    const auto [to, ws] = ctx.csr->arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      const auto p = static_cast<std::size_t>(ctx.PositionOf(to[i]));
      if (p >= lo && p < hi) {
        sub.PushArc(static_cast<VertexIndex>(p - lo), ws[i]);
      }
    }
  }
  sub.EndBuild();
  SubgraphViewsCounter().Increment();
}

// Demand of a range, summed in position order — the same order the old
// induced-subgraph construction accumulated it in.
Resource RangeDemand(const RangeCtx& ctx, std::size_t lo, std::size_t hi) {
  Resource d;
  for (std::size_t pos = lo; pos < hi; ++pos) {
    d += ctx.demands[static_cast<std::size_t>(ctx.perm[pos])];
  }
  return d;
}

// A group may only become terminal if it contains no anti-affinity
// (negative) edge: replicas must end up in different groups (Sec. IV-C).
bool HasNegativeInternalEdge(const RangeCtx& ctx, std::size_t lo,
                             std::size_t hi) {
  for (std::size_t pos = lo; pos < hi; ++pos) {
    const auto v = ctx.perm[pos];
    const auto [to, ws] = ctx.csr->arc_range(v);
    for (std::size_t i = 0; i < to.size(); ++i) {
      if (ws[i] >= 0.0) continue;
      const auto p = static_cast<std::size_t>(ctx.PositionOf(to[i]));
      if (p >= lo && p < hi) return true;
    }
  }
  return false;
}

bool FitTerminal(const RangeCtx& ctx, std::size_t lo, std::size_t hi,
                 const Resource& demand) {
  const int count = static_cast<int>(hi - lo);
  return ((*ctx.fits)(demand, count) && !HasNegativeInternalEdge(ctx, lo, hi)) ||
         count == 1;
}

void RecordFitLeaf(const RangeCtx& ctx, std::size_t lo, std::size_t hi,
                   const Resource& demand, std::string path,
                   RecursivePartitionResult& out) {
  const int count = static_cast<int>(hi - lo);
  const int gid = out.num_groups++;
  for (std::size_t pos = lo; pos < hi; ++pos) {
    out.group_of[static_cast<std::size_t>(ctx.perm[pos])] = gid;
  }
  out.group_path.push_back(std::move(path));
  out.group_demand.push_back(demand);
  out.group_size.push_back(count);
  if (!(*ctx.fits)(demand, count)) out.oversized_groups.push_back(gid);
}

// Bisects a range in place toward `fraction` of its balance weight on side
// 0: extracts its CSR view, bisects it (on ctx.pool when set), then
// stable-partitions the range's slice of `perm` by side. Returns the
// bisection's cut weight; `*mid` is the start of the side-1 child and
// `child_seeds` the children's seed chain.
double SplitRange(RangeCtx& ctx, std::size_t lo, std::size_t hi,
                  double fraction, std::size_t depth, std::uint64_t seed,
                  PartitionScratch& s, std::uint64_t child_seeds[2],
                  std::size_t* mid) {
  // One span per recursion level; arg = depth in the recursion tree.
  obs::TraceSpan split_span("partition.split",
                            static_cast<std::int64_t>(depth));
  const std::size_t count = hi - lo;
  PartitionOptions sub = *ctx.opts;
  sub.seed = seed;
  ExtractSub(ctx, lo, hi, s.sub);
  const auto bis = BisectCsr(s.sub, sub, fraction, ctx.pool, s, s.node_side);

  s.split_zero.clear();
  s.split_one.clear();
  for (std::size_t i = 0; i < count; ++i) {
    (s.node_side[i] == 0 ? s.split_zero : s.split_one)
        .push_back(ctx.perm[lo + i]);
  }
  // Defensive: if the bisection degenerated (all vertices one side — can
  // happen with pathological weights), force an arbitrary split so the
  // recursion always terminates.
  if (s.split_zero.empty() || s.split_one.empty()) {
    DegenerateSplitsCounter().Increment();
    s.split_zero.clear();
    s.split_one.clear();
    for (std::size_t i = 0; i < count; ++i) {
      (i < count / 2 ? s.split_zero : s.split_one)
          .push_back(ctx.perm[lo + i]);
    }
  }

  std::size_t pos = lo;
  for (const auto v : s.split_zero) ctx.Place(v, pos++);
  for (const auto v : s.split_one) ctx.Place(v, pos++);
  *mid = lo + s.split_zero.size();

  Rng salt(seed);
  child_seeds[0] = salt.NextU64();
  child_seeds[1] = salt.NextU64();
  return bis.cut_weight;
}

// Where a recursion node's record lives: lanes[slot].nodes[index].
struct NodeRef {
  int slot = 0;
  std::size_t index = 0;
};

// One node of the fit recursion, logged by the slot that visited it. A
// split keeps its cut and its children's records; a leaf its group.
struct RecursionNode {
  bool leaf = false;
  double cut = 0.0;
  NodeRef kids[2] = {};
  std::string path = {};
  std::size_t lo = 0;
  std::size_t hi = 0;
  Resource demand = {};
};

// What one pool slot owns during a RecursivePartition call: the arena its
// splits run in and the nodes it visited. No two threads share a slot, and
// a thread waiting inside a split only helps with that split's own loops
// (common/thread_pool.h), so a slot runs one split at a time.
struct RecursionLane {
  PartitionScratch scratch;
  std::vector<RecursionNode> nodes;
};

// The fit recursion, one driver for every thread count: split the range,
// then run both children as a two-task loop on the pool (in order, on this
// thread, without one). Child seeds derive from the recursion path, so a
// subtree's result never depends on where or when it ran. Returns where
// the node's record went.
NodeRef FitRecurse(RangeCtx& ctx, std::size_t lo, std::size_t hi,
                   const std::string& path, std::uint64_t seed, int slot,
                   std::vector<RecursionLane>& lanes) {
  RecursionLane& lane = lanes[static_cast<std::size_t>(slot)];
  const NodeRef self{slot, lane.nodes.size()};
  const Resource demand = RangeDemand(ctx, lo, hi);
  if (FitTerminal(ctx, lo, hi, demand)) {
    lane.nodes.push_back(
        {.leaf = true, .path = path, .lo = lo, .hi = hi, .demand = demand});
    return self;
  }
  // Proportional split target: carve off whole server-units so leaves fill
  // servers tightly instead of landing at ~50-70% from plain halving.
  double fraction = 0.5;
  if (*ctx.units) {
    const double u = std::max(1.0 + 1e-9, (*ctx.units)(demand));
    fraction = std::clamp(std::ceil(u / 2.0) / u, 0.25, 0.75);
  }
  std::size_t mid = lo;
  std::uint64_t child_seeds[2];
  const double cut = SplitRange(ctx, lo, hi, fraction, path.size(), seed,
                                lane.scratch, child_seeds, &mid);
  // Arena accounting once per split (coarse-grained: ~20 capacity sums per
  // bisection, invisible next to the bisection itself).
  if (lane.scratch.NoteHighWater()) ScratchGrowthCounter().Increment();
  lane.nodes.push_back({.cut = cut});

  const std::size_t bounds[3] = {lo, mid, hi};
  NodeRef kids[2];
  const auto child = [&](int child_slot, std::size_t c) {
    kids[c] = FitRecurse(ctx, bounds[c], bounds[c + 1],
                         path + static_cast<char>('0' + c), child_seeds[c],
                         child_slot, lanes);
  };
  if (ctx.pool == nullptr) {
    child(slot, 0);
    child(slot, 1);
  } else {
    ctx.pool->ParallelForChunked(
        2, 1, [&](int child_slot, std::size_t c, std::size_t) {
          // Spawned subtree; arg = its depth in the recursion tree.
          obs::TraceSpan worker_span(
              "partition.worker", static_cast<std::int64_t>(path.size() + 1),
              /*parallel_lane=*/true);
          child(child_slot, c);
        });
  }
  // The children may have grown this lane: index, don't hold a reference.
  std::copy(kids, kids + 2, lane.nodes[self.index].kids);
  return self;
}

}  // namespace

RecursivePartitionResult RecursivePartition(const CsrGraph& g,
                                            std::span<const Resource> demands,
                                            const FitPredicate& fits,
                                            const PartitionOptions& opts,
                                            const CapacityUnitsFn& units) {
  obs::TraceSpan span("partition.recursive",
                      static_cast<std::int64_t>(g.num_vertices()));
  RecursivePartitionResult out;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  out.group_of.assign(n, -1);
  if (n == 0) return out;

  GOLDILOCKS_CHECK_EQ(demands.size(), n);
  RangeCtx ctx;
  ctx.demands = demands;
  ctx.csr = &g;
  ctx.opts = &opts;
  ctx.fits = &fits;
  ctx.units = &units;
  ctx.perm.resize(n);
  std::iota(ctx.perm.begin(), ctx.perm.end(), 0);
  ctx.where = std::vector<std::atomic<VertexIndex>>(n);
  for (std::size_t v = 0; v < n; ++v) {
    ctx.where[v].store(static_cast<VertexIndex>(v), std::memory_order_relaxed);
  }

  std::optional<ThreadPool> pool;
  if (opts.threads > 1) ctx.pool = &pool.emplace(opts.threads);
  std::vector<RecursionLane> lanes(
      static_cast<std::size_t>(pool ? pool->num_threads() : 1));
  const NodeRef root = FitRecurse(ctx, 0, n, "", opts.seed, /*slot=*/0, lanes);

  // Preorder walk — node, then child 0's subtree, then child 1's — is the
  // serial visit order, so group numbering and the left-fold of the cuts
  // are identical at every thread count.
  double cut_weight = 0.0;
  std::vector<NodeRef> stack = {root};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    RecursionNode& nd =
        lanes[static_cast<std::size_t>(ref.slot)].nodes[ref.index];
    if (nd.leaf) {
      RecordFitLeaf(ctx, nd.lo, nd.hi, nd.demand, std::move(nd.path), out);
    } else {
      cut_weight += nd.cut;
      stack.push_back(nd.kids[1]);
      stack.push_back(nd.kids[0]);
    }
  }
  out.cut_weight = cut_weight;
  std::size_t scratch_peak = 0;
  for (const auto& lane : lanes) {
    scratch_peak = std::max(scratch_peak, lane.scratch.peak_bytes);
  }
  PublishScratchPeak(scratch_peak);
  if (pool) PublishPoolStats(pool->Stats());
  return out;
}

RecursivePartitionResult RecursivePartition(const Graph& g,
                                            const FitPredicate& fits,
                                            const PartitionOptions& opts,
                                            const CapacityUnitsFn& units) {
  CsrGraph csr;
  csr.BuildFrom(g);
  return RecursivePartition(csr, g.demands(), fits, opts, units);
}

std::vector<int> GroupsInLocalityOrder(const RecursivePartitionResult& r) {
  std::vector<int> order(static_cast<std::size_t>(r.num_groups));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return r.group_path[static_cast<std::size_t>(a)] <
           r.group_path[static_cast<std::size_t>(b)];
  });
  return order;
}

}  // namespace gl
