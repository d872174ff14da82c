// Scoped tracing: RAII spans, hierarchical per-thread nesting, Chrome export.
//
// A Trace is a per-run collector of timed spans. Instrumented code opens a
// TraceSpan at the top of a phase; the span measures wall time from
// construction to destruction and records itself into the active trace.
// When no trace is active — the normal case — a span is two relaxed atomic
// loads and nothing else, so instrumentation can stay compiled into release
// builds (the ISSUE-4 overhead budget is < 2% with obs disabled).
//
// Nesting is per thread: each thread keeps its own span stack (depth), so
// spans opened inside ThreadPool::ParallelFor workers nest correctly under
// whatever that worker is running, and two workers never share a stack.
// Thread ids are small stable indices in registration order, which makes
// the Chrome chrome://tracing export readable (one lane per worker).
//
// Everything here is informational: span timings are never hashed, never
// compared by tests for equality, and never feed a decision (DESIGN.md §10).
// The collector is thread-safe; the GL_GUARDED_BY annotations carry the
// PR-3 compile-time race-safety contract.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace gl::obs {

struct TraceEvent {
  static constexpr std::int64_t kNoArg =
      std::numeric_limits<std::int64_t>::min();

  const char* name = "";  // must have static storage duration (a literal)
  int tid = 0;            // stable per-trace thread index
  int depth = 0;          // nesting depth on that thread when opened
  double start_us = 0.0;  // relative to the trace epoch
  double dur_us = 0.0;
  // CPU time the owning thread spent inside the span; -1 when unknown
  // (e.g. a re-parsed trace written before this field existed). On an
  // oversubscribed machine dur_us includes timesliced-out periods; cpu_us
  // is the span's inherent work and is what the critical path charges.
  double cpu_us = -1.0;
  // True for one lane of a data-parallel batch (e.g. a fixed-grain chunk
  // dispatched to a pool): adjacent same-name lane siblings are parallel
  // alternatives even when the machine serialized them, so the profiler
  // clusters them instead of charging the whole batch as a serial chain.
  // Only set when the batch really had parallel capacity — a chunk loop
  // run inline at threads=1 records plain spans.
  bool parallel_lane = false;
  std::int64_t arg = kNoArg;  // optional numeric annotation (level, size...)
};

// Per-run span collector. Create one, Activate() it for the duration of the
// run, and export. At most one trace is active per process at a time; a
// TraceSpan opened while none is active is a no-op. The Trace must outlive
// every span opened while it was active.
class Trace {
 public:
  Trace();
  ~Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  // Installs this trace as the process-wide active collector. Aborts if
  // another trace is already active (traces do not nest).
  void Activate();
  // Uninstalls (no-op if this trace is not the active one).
  void Deactivate();
  [[nodiscard]] static Trace* Active();

  // Thread-safe; called by ~TraceSpan.
  void Record(const TraceEvent& ev);
  // Stable small index for the calling thread, assigned on first use.
  [[nodiscard]] int RegisterThread();
  // Monotonic identity of this collector (survives address reuse).
  [[nodiscard]] std::uint64_t id() const { return id_; }
  // Microseconds since this trace was constructed.
  [[nodiscard]] double NowRelUs() const;

  // Snapshot of recorded events, sorted by (tid, start_us).
  [[nodiscard]] std::vector<TraceEvent> Events() const;

  // Flat per-phase aggregation over all recorded spans.
  struct PhaseStat {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;  // inclusive (children counted in parents)
    double max_ms = 0.0;
  };
  // Sorted by name.
  [[nodiscard]] std::vector<PhaseStat> Summary() const;

  // chrome://tracing JSON ("X" complete events, ts/dur in microseconds).
  // Returns false (with a message on stderr) if the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  const std::uint64_t id_;
  const std::int64_t t0_us_;

  mutable Mutex mu_;
  std::vector<TraceEvent> events_ GL_GUARDED_BY(mu_);
  int next_tid_ GL_GUARDED_BY(mu_) = 0;
};

// RAII span. Opens on the active trace (no-op when none); closes and
// records on destruction. Must be destroyed on the thread that created it.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     std::int64_t arg = TraceEvent::kNoArg,
                     bool parallel_lane = false);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Replaces the arg recorded at close, for counts known only once the
  // span's work is done.
  void set_arg(std::int64_t arg) { arg_ = arg; }

 private:
  Trace* trace_;  // nullptr when no trace was active at construction
  const char* name_;
  std::int64_t arg_;
  int tid_ = 0;
  int depth_ = 0;
  bool parallel_lane_ = false;
  double start_us_ = 0.0;
  std::int64_t start_cpu_us_ = 0;
};

}  // namespace gl::obs
