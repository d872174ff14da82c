#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/check.h"
#include "common/json_writer.h"
#include "obs/clock.h"

namespace gl::obs {
namespace {

// Process-wide slots live behind accessors so no mutable state sits at
// namespace scope (gl_analyze GL007). The active-trace slot is the only thing
// a disabled TraceSpan touches: one relaxed load.
std::atomic<Trace*>& ActiveSlot() {
  static std::atomic<Trace*> slot{nullptr};
  return slot;
}

std::uint64_t NextTraceId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Per-thread span bookkeeping. Keyed by trace *id*, not pointer, so a new
// trace reusing a freed trace's address cannot inherit a stale thread index.
struct ThreadState {
  std::uint64_t trace_id = 0;
  int tid = 0;
  int depth = 0;
};

ThreadState& Tls() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

Trace::Trace() : id_(NextTraceId()), t0_us_(MonotonicMicros()) {}

Trace::~Trace() { Deactivate(); }

void Trace::Activate() {
  Trace* expected = nullptr;
  GOLDILOCKS_CHECK_MSG(
      ActiveSlot().compare_exchange_strong(expected, this),
      "a trace is already active; traces do not nest");
}

void Trace::Deactivate() {
  Trace* expected = this;
  ActiveSlot().compare_exchange_strong(expected, nullptr);
}

Trace* Trace::Active() {
  return ActiveSlot().load(std::memory_order_acquire);
}

void Trace::Record(const TraceEvent& ev) {
  MutexLock lock(mu_);
  events_.push_back(ev);
}

int Trace::RegisterThread() {
  MutexLock lock(mu_);
  return next_tid_++;
}

double Trace::NowRelUs() const {
  return static_cast<double>(MonotonicMicros() - t0_us_);
}

std::vector<TraceEvent> Trace::Events() const {
  std::vector<TraceEvent> out;
  {
    MutexLock lock(mu_);
    out = events_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
  return out;
}

std::vector<Trace::PhaseStat> Trace::Summary() const {
  const auto events = Events();
  std::vector<PhaseStat> stats;
  for (const auto& ev : events) {
    auto it = std::find_if(stats.begin(), stats.end(), [&](const PhaseStat& s) {
      return s.name == ev.name;
    });
    if (it == stats.end()) {
      stats.push_back({ev.name, 0, 0.0, 0.0});
      it = stats.end() - 1;
    }
    ++it->count;
    it->total_ms += ev.dur_us / 1000.0;
    it->max_ms = std::max(it->max_ms, ev.dur_us / 1000.0);
  }
  std::sort(stats.begin(), stats.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              return a.name < b.name;
            });
  return stats;
}

bool Trace::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const auto& ev : Events()) {
    w.BeginObject();
    w.Key("name");
    w.String(ev.name);
    w.Key("cat");
    w.String("gl");
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Double(ev.start_us);
    w.Key("dur");
    w.Double(ev.dur_us);
    w.Key("cpu");
    w.Double(ev.cpu_us);
    w.Key("lane");
    w.Int(ev.parallel_lane ? 1 : 0);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(ev.tid);
    if (ev.arg != TraceEvent::kNoArg) {
      w.Key("args");
      w.BeginObject();
      w.Key("arg");
      w.Int(ev.arg);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.EndObject();
  out.push_back('\n');
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

TraceSpan::TraceSpan(const char* name, std::int64_t arg, bool parallel_lane)
    : trace_(Trace::Active()), name_(name), arg_(arg),
      parallel_lane_(parallel_lane) {
  if (trace_ == nullptr) return;
  ThreadState& tls = Tls();
  if (tls.trace_id != trace_->id()) {
    tls.trace_id = trace_->id();
    tls.tid = trace_->RegisterThread();
    tls.depth = 0;
  }
  tid_ = tls.tid;
  depth_ = tls.depth++;
  start_us_ = trace_->NowRelUs();
  start_cpu_us_ = ThreadCpuMicros();
}

TraceSpan::~TraceSpan() {
  if (trace_ == nullptr) return;
  ThreadState& tls = Tls();
  // The trace this span opened on may already have been replaced on this
  // thread by a newer one (spans must not outlive their trace; checked by
  // the id comparison rather than trusted).
  if (tls.trace_id == trace_->id()) tls.depth = depth_;
  TraceEvent ev;
  ev.name = name_;
  ev.tid = tid_;
  ev.depth = depth_;
  ev.start_us = start_us_;
  ev.dur_us = trace_->NowRelUs() - start_us_;
  ev.cpu_us =
      static_cast<double>(ThreadCpuMicros() - start_cpu_us_);
  ev.parallel_lane = parallel_lane_;
  ev.arg = arg_;
  trace_->Record(ev);
}

}  // namespace gl::obs
