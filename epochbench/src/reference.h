// The reference kernel: a fixed piece of work, independent of the simulator,
// that the end-to-end run times between scheduler runs.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over seconds to minutes (other tenants' load on the same cores, caches
// and memory). The drift slows the simulator and the reference kernel
// alike, so the end-to-end timings are reported as multiples of the
// kernel's time measured next to them (unit "ref"), which cancels most of
// the drift. The kernel uses only the standard library and none of ../src,
// so a change to the simulator never changes the kernel: a simulator that
// gets 10% slower reads 10% more refs.
//
// Its mix follows the simulator's hot paths: a sort of 32-bit keys,
// ordered-map insert/erase churn, hash-map buckets of small vectors, and a
// random adjacency-list graph built and walked breadth-first.
#pragma once

#include <cstdint>

namespace epochbench {

struct ReferenceTiming {
  double ms = 0.0;              // wall time of one kernel run
  std::uint64_t checksum = 0;   // identical on every run (same fixed input)
};

// Runs the kernel once. Deterministic work; only `ms` varies.
ReferenceTiming RunReferenceKernel();

}  // namespace epochbench
