// Reusable scratch arenas for the partitioning kernel (DESIGN.md §11).
//
// Every buffer the multilevel partitioner needs — matchings, coarse levels,
// gain arrays, heaps, move logs, subgraph views — lives in one
// PartitionScratch arena that is allocated once and reused across levels,
// recursion nodes, and epochs. Each helper re-initializes the portion it
// uses (assign/Reset) before reading it, so results never depend on what a
// previous subproblem left behind: a fresh arena and a warm arena produce
// bit-identical partitions. That property is what lets the recursion hand
// each pool slot its own arena without changing results (DESIGN.md §9).
//
// Nothing here is thread-safe; an arena belongs to exactly one thread at a
// time. The recursion enforces that by construction (one arena per pool
// slot, and a slot runs one split at a time).
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "graph/csr.h"
#include "graph/refine.h"
#include "obs/memory.h"

namespace gl {

// Max-heap with lazy deletion and reusable storage. Push records the
// priority as current; stale entries (pushed before a later Push or
// Invalidate for the same vertex) are skipped at Pop. Priorities compare on
// value only, so ties pop in heap order — deterministic for a given push
// sequence, which is all the FM contract requires (DESIGN.md §8).
class LazyMaxHeap {
 public:
  // Prepares for a universe of n vertices; keeps capacity.
  void Reset(std::size_t n) {
    current_.assign(n, kAbsent);
    heap_.clear();
  }

  void Push(VertexIndex v, double priority) {
    current_[static_cast<std::size_t>(v)] = priority;
    heap_.push_back(Entry{priority, v});
    SiftUp(heap_.size() - 1);
  }

  void Invalidate(VertexIndex v) {
    current_[static_cast<std::size_t>(v)] = kAbsent;
  }

  [[nodiscard]] bool Contains(VertexIndex v) const {
    return !std::isnan(current_[static_cast<std::size_t>(v)]);
  }

  // Pops the highest-priority live entry; false when only stale entries (or
  // nothing) remain. Popping consumes the vertex: it reads as absent until
  // pushed again.
  bool Pop(VertexIndex* v, double* priority) {
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      heap_.front() = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) SiftDown(0);
      if (current_[static_cast<std::size_t>(top.v)] == top.priority) {
        current_[static_cast<std::size_t>(top.v)] = kAbsent;
        *v = top.v;
        *priority = top.priority;
        return true;
      }
    }
    return false;
  }

  // Retained footprint in bytes (capacities). Observability only.
  [[nodiscard]] std::size_t ApproxBytes() const {
    return obs::VectorFootprintBytes(heap_) +
           obs::VectorFootprintBytes(current_);
  }

 private:
  struct Entry {
    double priority;
    VertexIndex v;
  };

  // NaN sentinel compares unequal to everything, including itself — no
  // finite priority can collide with it.
  static constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();

  void SiftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t p = (i - 1) / 2;
      if (heap_[p].priority >= heap_[i].priority) break;
      std::swap(heap_[p], heap_[i]);
      i = p;
    }
  }

  void SiftDown(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t largest = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && heap_[l].priority > heap_[largest].priority) largest = l;
      if (r < n && heap_[r].priority > heap_[largest].priority) largest = r;
      if (largest == i) break;
      std::swap(heap_[i], heap_[largest]);
      i = largest;
    }
  }

  std::vector<Entry> heap_;
  std::vector<double> current_;
};

// Flat timestamped accumulator keyed by small integer ids: Add() sums
// weights per id in O(1), touched() returns the ids in first-touch order —
// deterministic by construction when the caller's scan order is, so no sort
// is needed. Reset is O(1) (epoch bump); storage grows to the largest
// universe seen and is then reused.
class GroupAccumulator {
 public:
  void Reset(std::size_t num_ids) {
    if (num_ids > sum_.size()) {
      sum_.resize(num_ids, 0.0);
      stamp_.resize(num_ids, 0);
      ++grow_events_;
    }
    touched_.clear();
    if (++epoch_ == 0) {  // wrapped: stamps from the old era could collide
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  void Add(int id, double w) {
    const auto i = static_cast<std::size_t>(id);
    GOLDILOCKS_CHECK_LT(i, sum_.size());
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      sum_[i] = w;
      touched_.push_back(id);
    } else {
      sum_[i] += w;
    }
  }

  [[nodiscard]] double Get(int id) const {
    const auto i = static_cast<std::size_t>(id);
    GOLDILOCKS_CHECK_LT(i, sum_.size());
    return stamp_[i] == epoch_ ? sum_[i] : 0.0;
  }

  // Ids seen this epoch, in first-touch order.
  [[nodiscard]] std::span<const int> touched() const { return touched_; }

  // Test seam: forces the epoch counter so the wrap path is reachable
  // without 2^32 Resets.
  void set_epoch_for_test(std::uint32_t epoch) { epoch_ = epoch; }

  // Retained footprint in bytes (capacities, never released by Reset), and
  // how many Resets actually grew the universe — the arena's allocation
  // events. Observability only (DESIGN.md §10).
  [[nodiscard]] std::size_t ApproxBytes() const {
    return obs::VectorFootprintBytes(sum_) +
           obs::VectorFootprintBytes(stamp_) +
           obs::VectorFootprintBytes(touched_);
  }
  [[nodiscard]] std::uint64_t grow_events() const { return grow_events_; }

 private:
  std::vector<double> sum_;
  std::vector<std::uint32_t> stamp_;
  std::vector<int> touched_;
  std::uint32_t epoch_ = 0;
  std::uint64_t grow_events_ = 0;
};

// Per-trial working set for multi-trial FM (partitioner.cc). Each trial owns
// a full copy of the refinement state so trials can run concurrently on pool
// threads without sharing anything mutable; every buffer is re-initialized
// (assign/Reset) by the trial before use, so a warm trial slot and a fresh
// one behave identically.
struct FmTrialScratch {
  std::vector<std::uint8_t> side;
  std::vector<double> gain;
  LazyMaxHeap heap;
  std::vector<std::uint8_t> moved;
  std::vector<VertexIndex> move_seq;
  std::vector<VertexIndex> seed_order;  // boundary-seed push order

  // Trial outputs, read by the serial winner fold after the batch joins.
  double cut = 0.0;
  double w0 = 0.0;
  std::uint64_t arcs_scanned = 0;
  std::uint64_t rejections = 0;

  [[nodiscard]] std::size_t ApproxBytes() const {
    return obs::VectorFootprintBytes(side) + obs::VectorFootprintBytes(gain) +
           heap.ApproxBytes() + obs::VectorFootprintBytes(moved) +
           obs::VectorFootprintBytes(move_seq) +
           obs::VectorFootprintBytes(seed_order);
  }
};

// The partitioner's working memory. One arena serves a whole serial
// recursive partition; with a pool, each slot's splits run in that slot's
// own arena. Buffers are grouped by the phase that owns them; phases
// never overlap, so none alias.
struct PartitionScratch {
  // Multilevel hierarchy: coarse level i lives in levels[i] and maps fine
  // vertex v of the level below to level_maps[i][v]. A deque so growing the
  // hierarchy never moves (and never invalidates pointers to) built levels.
  std::deque<CsrGraph> levels;
  std::deque<std::vector<VertexIndex>> level_maps;

  // Pointer chain from the finest graph through the built levels, rebuilt by
  // every bisection. Lives here (not as a BisectCsr local) so the steady
  // state allocates nothing: capacity from the deepest hierarchy seen is
  // reused by every later call (DESIGN.md §11).
  std::vector<const CsrGraph*> level_chain;

  // Coarsening (graph/coarsen.cc). `match` and `propose` are the two ping
  // buffers of the propose/resolve matching rounds; the contraction pass
  // owns the rest: `rep` marks each matched pair's representative (smaller
  // endpoint), `fine_to_coarse` numbers coarse vertices, the `row_*` arrays
  // hold per-coarse-row metadata, and `pad_col`/`pad_w` are the padded
  // arc staging buffers sized by upper-bound degrees before the exact
  // prefix sum packs them into the coarse CSR. `dedup` holds one
  // neighbor-merge accumulator per pool slot; concurrent chunks touch
  // disjoint slots and Reset per coarse row, so slot reuse is safe.
  std::vector<VertexIndex> order;     // per-level random sweep order
  std::vector<VertexIndex> match;
  std::vector<VertexIndex> propose;
  std::vector<VertexIndex> absorb;    // singleton → paired absorber, or -1
  std::vector<VertexIndex> rep;
  std::vector<std::size_t> mem_off;   // absorbed members grouped by cluster
  std::vector<VertexIndex> mem;
  std::vector<std::size_t> mem_fill;
  std::vector<std::size_t> pad_off;
  std::vector<std::size_t> row_off;
  std::vector<std::size_t> row_count;
  std::vector<double> row_balance;
  std::vector<double> row_deg;
  std::vector<VertexIndex> pad_col;
  std::vector<double> pad_w;
  std::vector<GroupAccumulator> dedup;

  // Initial partition growth + FM refinement.
  LazyMaxHeap heap;
  std::vector<double> gain;
  std::vector<double> grow_key;
  std::vector<std::uint8_t> side;
  std::vector<std::uint8_t> fine_side;
  std::vector<std::uint8_t> best_side;
  std::vector<std::uint8_t> trial_side;
  std::vector<std::uint8_t> in_region;
  std::vector<std::uint8_t> moved;
  std::vector<VertexIndex> move_seq;
  std::vector<VertexIndex> outside;

  // Multi-trial FM (partitioner.cc): per-trial working sets, the shared
  // chunked-precompute partial sums (folded in chunk order, one canonical
  // summation order at every width), and the per-trial outcomes the winner
  // fold reads. Sized to the trial count once and reused across levels.
  std::vector<FmTrialScratch> fm_trials;
  std::vector<double> chunk_partials;
  std::vector<FmTrialOutcome> trial_outcomes;

  // Zero-copy recursion over index ranges (partitioner.cc): the CSR view of
  // the current range plus the stable split buffers.
  CsrGraph sub;
  std::vector<VertexIndex> split_zero;
  std::vector<VertexIndex> split_one;
  std::vector<std::uint8_t> node_side;

  // ---- memory observability (DESIGN.md §10; informational only) ---------

  // Arena high-water mark in bytes; updated by NoteHighWater(), never
  // decreased — capacities survive every Reset()/Clear(), so the mark is
  // monotone over the arena's lifetime even as subproblems shrink.
  std::size_t peak_bytes = 0;

  // Retained footprint right now: the sum of every buffer's capacity.
  [[nodiscard]] std::size_t ApproxBytes() const {
    std::size_t bytes = 0;
    for (const auto& level : levels) bytes += level.ApproxBytes();
    for (const auto& map : level_maps) {
      bytes += obs::VectorFootprintBytes(map);
    }
    bytes += obs::VectorFootprintBytes(level_chain);
    bytes += obs::VectorFootprintBytes(match);
    bytes += obs::VectorFootprintBytes(order);
    bytes += obs::VectorFootprintBytes(propose);
    bytes += obs::VectorFootprintBytes(absorb);
    bytes += obs::VectorFootprintBytes(rep);
    bytes += obs::VectorFootprintBytes(mem_off);
    bytes += obs::VectorFootprintBytes(mem);
    bytes += obs::VectorFootprintBytes(mem_fill);
    bytes += obs::VectorFootprintBytes(pad_off);
    bytes += obs::VectorFootprintBytes(row_off);
    bytes += obs::VectorFootprintBytes(row_count);
    bytes += obs::VectorFootprintBytes(row_balance);
    bytes += obs::VectorFootprintBytes(row_deg);
    bytes += obs::VectorFootprintBytes(pad_col);
    bytes += obs::VectorFootprintBytes(pad_w);
    for (const auto& d : dedup) bytes += d.ApproxBytes();
    bytes += heap.ApproxBytes();
    bytes += obs::VectorFootprintBytes(gain);
    bytes += obs::VectorFootprintBytes(grow_key);
    bytes += obs::VectorFootprintBytes(side);
    bytes += obs::VectorFootprintBytes(fine_side);
    bytes += obs::VectorFootprintBytes(best_side);
    bytes += obs::VectorFootprintBytes(trial_side);
    bytes += obs::VectorFootprintBytes(in_region);
    bytes += obs::VectorFootprintBytes(moved);
    bytes += obs::VectorFootprintBytes(move_seq);
    bytes += obs::VectorFootprintBytes(outside);
    for (const auto& t : fm_trials) bytes += t.ApproxBytes();
    bytes += obs::VectorFootprintBytes(chunk_partials);
    bytes += obs::VectorFootprintBytes(trial_outcomes);
    bytes += sub.ApproxBytes();
    bytes += obs::VectorFootprintBytes(split_zero);
    bytes += obs::VectorFootprintBytes(split_one);
    bytes += obs::VectorFootprintBytes(node_side);
    return bytes;
  }

  // Folds the current footprint into the high-water mark; true when the
  // mark moved (i.e. some buffer actually grew since the last call).
  bool NoteHighWater() {
    const std::size_t bytes = ApproxBytes();
    if (bytes <= peak_bytes) return false;
    peak_bytes = bytes;
    return true;
  }
};

}  // namespace gl
