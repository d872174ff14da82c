// Observability report tool for "gl.epoch.v1" JSONL run logs.
//
//   gl_report run    [--scenario=twitter|azure] [--schedulers=a,b,...]
//                    [--epochs=N] [--seed=N] [--jsonl=PATH] [--trace=PATH]
//   gl_report tables  FILE.jsonl
//   gl_report check   A.jsonl B.jsonl
//   gl_report profile TRACE.json [--root=NAME] [--top=N]
//   gl_report flame   TRACE.json [--out=PATH]
//   gl_report diff    A B [--threshold=FRACTION]
//
// `run` executes the named policies (default: goldilocks,borg) over the
// scenario with observability enabled: it streams one JSONL record per
// epoch, collects a trace of every instrumented phase, prints the flat
// per-phase timing table plus per-policy averages, and — with --trace= —
// writes a Chrome trace loadable at chrome://tracing.
//
// `tables` re-derives the timing and counter tables from an existing JSONL
// file, so a logged run can be summarized later without re-running it.
//
// `check` diffs two JSONL streams under the determinism contract: every
// byte outside the informational "timings" section must match (DESIGN.md
// §10). It also validates the schema tag on every line. Exit 0 = identical,
// 1 = divergent/invalid, 2 = bad usage.
//
// `profile` re-reads a Chrome trace written by --trace= (or gl_replay
// --trace=) and prints the attribution the flat tables cannot: top self-time
// frames and the critical path through the parallel span forest, including
// how much of the root's wall is serial (width-1) — the Amdahl bound on the
// t8 speedup (DESIGN.md §15).
//
// `flame` emits the same trace as collapsed stacks ("a;b;c N", N in µs) for
// flamegraph.pl / speedscope.
//
// `diff` compares two runs metric-by-metric: two gl.epoch.v1 JSONL streams
// (per-scheduler metric/counter sums; deterministic mismatches flagged DIFF,
// informational drift beyond --threshold flagged DRIFT) or two bench --json
// arrays (per-configuration median wall / efficiency / peak bytes drift).
// Unlike `check` it always exits 0 when both inputs parse — it is a report,
// not a gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/scheduler_factory.h"
#include "obs/profile.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload/scenarios.h"

namespace {

constexpr const char* kTimingsMarker = ",\"timings\":";
constexpr const char* kSchemaPrefix = "{\"schema\":\"gl.epoch.v1\"";

bool ParseFlag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  out = arg + n;
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) parts.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

// Non-empty lines of `path`; `line_numbers` (optional) gets each one's
// 1-based line number in the file.
bool ReadLines(const std::string& path, std::vector<std::string>& lines,
               std::vector<int>* line_numbers = nullptr) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "gl_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    if (line.empty()) continue;
    lines.push_back(line);
    if (line_numbers != nullptr) line_numbers->push_back(number);
  }
  return true;
}

// --- mini extractors for the fixed "gl.epoch.v1" line layout ---------------
// The emitter is our own JsonWriter with a fixed key order, so targeted
// substring scans are exact — this is not a general JSON parser.

// Value of a `"key":"string"` pair, or "" when absent.
std::string ExtractString(const std::string& line, const char* key) {
  std::string pat = "\"";
  pat += key;
  pat += "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + pat.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return "";
  return line.substr(begin, end - begin);
}

// Value of a `"key":number` pair at/after `from`, or fallback when absent.
double ExtractNumber(const std::string& line, const char* key, double fallback,
                     std::size_t from = 0) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  const std::size_t at = line.find(pat, from);
  if (at == std::string::npos) return fallback;
  return std::strtod(line.c_str() + at + pat.size(), nullptr);
}

// Strict form of ExtractNumber for input validation: the first
// `"key":` at/after `from` must be followed by a finite number. Returns an
// empty string and sets *value on success, else what is wrong; *at is the
// key's offset (or `from` when it is absent).
std::string ReadNumber(const std::string& text, const char* key,
                       std::size_t from, double* value, std::size_t* at) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  const std::size_t found = text.find(pat, from);
  *at = from;
  if (found == std::string::npos) {
    return std::string("no \"") + key + "\" number";
  }
  *at = found;
  const char* begin = text.c_str() + found + pat.size();
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  if (end == begin || !std::isfinite(*value)) {
    return std::string("\"") + key + "\" is not a finite number";
  }
  return "";
}

// All `"name":number` pairs of the flat object following `"section":{`.
std::vector<std::pair<std::string, double>> ExtractSection(
    const std::string& line, const char* section) {
  std::vector<std::pair<std::string, double>> pairs;
  std::string pat = "\"";
  pat += section;
  pat += "\":{";
  std::size_t at = line.find(pat);
  if (at == std::string::npos) return pairs;
  at += pat.size();
  while (at < line.size() && line[at] != '}') {
    if (line[at] == ',') {
      ++at;
      continue;
    }
    if (line[at] != '"') break;
    const std::size_t name_end = line.find('"', at + 1);
    if (name_end == std::string::npos || name_end + 1 >= line.size() ||
        line[name_end + 1] != ':') {
      break;
    }
    char* after = nullptr;
    const double v = std::strtod(line.c_str() + name_end + 2, &after);
    pairs.emplace_back(line.substr(at + 1, name_end - at - 1), v);
    at = static_cast<std::size_t>(after - line.c_str());
  }
  return pairs;
}

// --- check -----------------------------------------------------------------

// The deterministic prefix of a record: everything before the trailing
// ,"timings":{...} section, re-closed. Empty string = malformed line.
std::string DeterministicPrefix(const std::string& line) {
  const std::size_t at = line.find(kTimingsMarker);
  if (at == std::string::npos || line.back() != '}') return "";
  return line.substr(0, at) + "}";
}

int Check(const std::string& path_a, const std::string& path_b) {
  std::vector<std::string> a, b;
  if (!ReadLines(path_a, a) || !ReadLines(path_b, b)) return 1;
  if (a.size() != b.size()) {
    std::printf("CHECK FAIL: %s has %zu records, %s has %zu\n", path_a.c_str(),
                a.size(), path_b.c_str(), b.size());
    return 1;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (const auto* line : {&a[i], &b[i]}) {
      if (line->rfind(kSchemaPrefix, 0) != 0) {
        std::printf("CHECK FAIL: record %zu is not a gl.epoch.v1 line\n", i);
        return 1;
      }
    }
    const std::string na = DeterministicPrefix(a[i]);
    const std::string nb = DeterministicPrefix(b[i]);
    if (na.empty() || nb.empty()) {
      std::printf("CHECK FAIL: record %zu has no timings section\n", i);
      return 1;
    }
    if (na != nb) {
      std::printf("CHECK FAIL: record %zu differs outside timings\n  a: %s\n"
                  "  b: %s\n",
                  i, na.c_str(), nb.c_str());
      return 1;
    }
  }
  std::printf("CHECK OK: %zu records, deterministic sections byte-identical "
              "(timings ignored)\n",
              a.size());
  return 0;
}

// --- tables ----------------------------------------------------------------

// What is wrong with one gl.epoch.v1 record, or "" when it carries every
// field the tables read: a scheduler name, a numeric epoch and a timings
// section with a non-negative wall time. A missing field would otherwise
// read as a default 0 in the tables.
std::string ValidateEpochRecord(const std::string& line) {
  double value = 0.0;
  std::size_t at = 0;
  std::string error = ReadNumber(line, "epoch", 0, &value, &at);
  if (!error.empty()) return error;
  if (ExtractString(line, "scheduler").empty()) {
    return "no \"scheduler\" name";
  }
  const std::size_t timings_at = line.find(kTimingsMarker);
  if (timings_at == std::string::npos) return "no \"timings\" section";
  error = ReadNumber(line, "wall_ms", timings_at, &value, &at);
  if (!error.empty()) return error;
  if (value < 0.0) return "negative \"wall_ms\"";
  return "";
}

void PrintTables(const std::vector<std::string>& lines) {
  struct PerScheduler {
    int epochs = 0;
    double wall_ms = 0.0;
    std::map<std::string, double> phase_ms;
    std::map<std::string, double> counters;
  };
  std::map<std::string, PerScheduler> by_scheduler;
  for (const auto& line : lines) {
    if (line.rfind(kSchemaPrefix, 0) != 0) continue;
    auto& agg = by_scheduler[ExtractString(line, "scheduler")];
    ++agg.epochs;
    const std::size_t timings_at = line.find(kTimingsMarker);
    agg.wall_ms += ExtractNumber(line, "wall_ms", 0.0,
                                 timings_at == std::string::npos ? 0
                                                                 : timings_at);
    for (const auto& [name, ms] : ExtractSection(line, "phases")) {
      agg.phase_ms[name] += ms;
    }
    for (const auto& [name, v] : ExtractSection(line, "counters")) {
      agg.counters[name] += v;
    }
  }
  if (by_scheduler.empty()) {
    std::printf("no gl.epoch.v1 records found\n");
    return;
  }

  gl::PrintBanner("per-policy epoch phase timings (total ms, informational)");
  for (const auto& [scheduler, agg] : by_scheduler) {
    gl::Table t({"phase", "total ms", "ms/epoch", "share"});
    for (const auto& [name, ms] : agg.phase_ms) {
      t.AddRow({name, gl::Table::Num(ms, 2),
                gl::Table::Num(ms / agg.epochs, 3),
                gl::Table::Pct(agg.wall_ms > 0 ? ms / agg.wall_ms : 0.0)});
    }
    t.AddRow({"(epoch wall)", gl::Table::Num(agg.wall_ms, 2),
              gl::Table::Num(agg.wall_ms / agg.epochs, 3), ""});
    std::printf("%s — %d epochs\n", scheduler.c_str(), agg.epochs);
    t.Print();
  }

  gl::PrintBanner("deterministic counter totals (sum of per-epoch deltas)");
  for (const auto& [scheduler, agg] : by_scheduler) {
    if (agg.counters.empty()) {
      std::printf("%s: no counters section (parallel run?)\n",
                  scheduler.c_str());
      continue;
    }
    gl::Table t({"counter", "total"});
    for (const auto& [name, v] : agg.counters) {
      t.AddRow({name, gl::Table::Int(static_cast<long long>(v))});
    }
    std::printf("%s\n", scheduler.c_str());
    t.Print();
  }
}

// --- profile / flame -------------------------------------------------------

// A Chrome trace re-read into TraceEvents. Owns the interned span names
// (TraceEvent carries const char*); the deque keeps their addresses stable.
struct ParsedTrace {
  std::deque<std::string> names;
  std::vector<gl::obs::TraceEvent> events;
};

// Re-parses a chrome://tracing JSON file written by Trace::WriteChromeJson
// (tolerating other writers' "X" complete events too). The export drops the
// per-thread nesting depth, so it is reconstructed per tid from interval
// containment: sorted by (start asc, dur desc), a span's depth is the number
// of still-open spans that contain it.
bool ParseChromeTrace(const std::string& path, ParsedTrace& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "gl_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::map<std::string, const std::string*> interned;
  const std::string pat = "{\"name\":\"";
  // A malformed event fails the whole parse: a truncated or negative
  // duration would otherwise be profiled as a default or negative time.
  const auto reject = [&](std::size_t offset, const std::string& what) {
    std::fprintf(stderr, "gl_report: %s: offset %zu: %s\n", path.c_str(),
                 offset, what.c_str());
    return false;
  };
  std::size_t at = text.find(pat);
  while (at != std::string::npos) {
    const std::size_t next = text.find(pat, at + pat.size());
    const std::size_t chunk_at = at;
    const std::string chunk =
        text.substr(at, (next == std::string::npos ? text.size() : next) - at);
    at = next;
    if (chunk.find('}') == std::string::npos) {
      return reject(chunk_at, "truncated event");
    }
    if (chunk.find("\"ph\":\"X\"") == std::string::npos) continue;
    gl::obs::TraceEvent ev;
    for (const char* key : {"ts", "dur"}) {
      double value = 0.0;
      std::size_t key_at = 0;
      const std::string error = ReadNumber(chunk, key, 0, &value, &key_at);
      if (!error.empty()) return reject(chunk_at + key_at, error);
      if (value < 0.0) {
        return reject(chunk_at + key_at,
                      std::string("negative \"") + key + "\"");
      }
    }
    const std::string name = ExtractString(chunk, "name");
    auto it = interned.find(name);
    if (it == interned.end()) {
      out.names.push_back(name);
      it = interned.emplace(name, &out.names.back()).first;
    }
    ev.name = it->second->c_str();
    ev.start_us = ExtractNumber(chunk, "ts", 0.0);
    ev.dur_us = ExtractNumber(chunk, "dur", 0.0);
    ev.cpu_us = ExtractNumber(chunk, "cpu", -1.0);
    ev.parallel_lane = ExtractNumber(chunk, "lane", 0.0) != 0.0;
    ev.tid = static_cast<int>(ExtractNumber(chunk, "tid", 0.0));
    ev.arg = static_cast<std::int64_t>(ExtractNumber(
        chunk, "arg", static_cast<double>(gl::obs::TraceEvent::kNoArg)));
    out.events.push_back(ev);
  }
  if (out.events.empty()) {
    std::fprintf(stderr, "gl_report: no complete (\"ph\":\"X\") events in %s\n",
                 path.c_str());
    return false;
  }
  // Depth reconstruction: per tid, (start asc, dur desc) visits containers
  // before their contents; the stack of still-open end times is the depth.
  std::sort(out.events.begin(), out.events.end(),
            [](const gl::obs::TraceEvent& a, const gl::obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  constexpr double kTolUs = 1e-6;
  std::vector<double> open_ends;
  int tid = std::numeric_limits<int>::min();
  for (auto& ev : out.events) {
    if (ev.tid != tid) {
      tid = ev.tid;
      open_ends.clear();
    }
    while (!open_ends.empty() &&
           ev.start_us + ev.dur_us > open_ends.back() + kTolUs) {
      open_ends.pop_back();
    }
    ev.depth = static_cast<int>(open_ends.size());
    open_ends.push_back(ev.start_us + ev.dur_us);
  }
  return true;
}

int ProfileCmd(const std::string& path, const std::string& root_name,
               int top_n) {
  ParsedTrace trace;
  if (!ParseChromeTrace(path, trace)) return 1;
  const gl::obs::Profile prof = gl::obs::BuildProfile(trace.events);

  gl::PrintBanner("top self-time frames (informational)");
  gl::Table flat({"frame", "count", "self ms", "total ms", "self share"});
  double self_total_us = 0.0;
  for (const auto& e : prof.flat) self_total_us += e.self_us;
  int shown = 0;
  for (const auto& e : prof.flat) {
    if (shown++ >= top_n) break;
    flat.AddRow({e.name, gl::Table::Int(static_cast<long long>(e.count)),
                 gl::Table::Num(e.self_us / 1000.0, 3),
                 gl::Table::Num(e.total_us / 1000.0, 3),
                 gl::Table::Pct(self_total_us > 0 ? e.self_us / self_total_us
                                                  : 0.0)});
  }
  flat.Print();

  const gl::obs::CriticalPathResult cp =
      gl::obs::ComputeCriticalPath(trace.events, root_name);
  if (cp.root_name.empty()) {
    std::printf("no root span%s%s found for a critical path\n",
                root_name.empty() ? "" : " named ", root_name.c_str());
    return 0;
  }
  gl::PrintBanner("critical path (longest non-overlappable chain)");
  gl::Table steps({"step", "arg", "ms", "width"});
  for (const auto& s : cp.steps) {
    steps.AddRow({s.name,
                  s.arg == gl::obs::TraceEvent::kNoArg
                      ? std::string("-")
                      : gl::Table::Int(static_cast<long long>(s.arg)),
                  gl::Table::Num(s.ms, 3), gl::Table::Int(s.width)});
  }
  steps.Print();
  std::printf(
      "root %s: %.3f ms wall; critical path %.3f ms; serial (width-1) steps "
      "%.3f ms = %.1f%% of root wall\n",
      cp.root_name.c_str(), cp.root_ms, cp.path_ms, cp.serial_ms,
      cp.root_ms > 0 ? 100.0 * cp.serial_ms / cp.root_ms : 0.0);
  return 0;
}

int FlameCmd(const std::string& path, const std::string& out_path) {
  ParsedTrace trace;
  if (!ParseChromeTrace(path, trace)) return 1;
  const std::string collapsed =
      gl::obs::CollapsedStacks(gl::obs::BuildProfile(trace.events));
  if (out_path.empty()) {
    std::fwrite(collapsed.data(), 1, collapsed.size(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "gl_report: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  out << collapsed;
  std::printf("wrote %zu collapsed-stack bytes to %s\n", collapsed.size(),
              out_path.c_str());
  return 0;
}

// --- diff ------------------------------------------------------------------

// Relative drift of b against a, on a scale where 0.1 = 10%.
double Drift(double a, double b) {
  const double base = std::max(std::fabs(a), 1e-12);
  return std::fabs(b - a) / base;
}

struct DiffCounts {
  int determ_diffs = 0;
  int drift_flags = 0;
};

// One comparison row. Deterministic rows flag any difference at all; the
// informational ones flag only drift beyond the threshold.
void DiffRow(gl::Table& t, const std::string& name, double a, double b,
             bool deterministic, double threshold, DiffCounts& counts) {
  std::string flag;
  if (deterministic) {
    if (a != b) {
      flag = "DIFF";
      ++counts.determ_diffs;
    }
  } else if (Drift(a, b) > threshold) {
    flag = "DRIFT";
    ++counts.drift_flags;
  }
  t.AddRow({name, gl::Table::Num(a, 3), gl::Table::Num(b, 3),
            gl::Table::Num(b - a, 3), flag});
}

// Per-scheduler aggregate of one gl.epoch.v1 stream.
struct SchedulerAgg {
  int epochs = 0;
  std::map<std::string, double> metrics;   // deterministic sums
  std::map<std::string, double> counters;  // deterministic sums
  double wall_ms = 0.0;                    // informational sum
  std::map<std::string, double> gauges;    // informational sums
};

std::map<std::string, SchedulerAgg> AggregateJsonl(
    const std::vector<std::string>& lines) {
  std::map<std::string, SchedulerAgg> by_scheduler;
  for (const auto& line : lines) {
    if (line.rfind(kSchemaPrefix, 0) != 0) continue;
    auto& agg = by_scheduler[ExtractString(line, "scheduler")];
    ++agg.epochs;
    for (const auto& [name, v] : ExtractSection(line, "metrics")) {
      agg.metrics[name] += v;
    }
    for (const auto& [name, v] : ExtractSection(line, "counters")) {
      agg.counters[name] += v;
    }
    const std::size_t timings_at = line.find(kTimingsMarker);
    agg.wall_ms += ExtractNumber(
        line, "wall_ms", 0.0,
        timings_at == std::string::npos ? 0 : timings_at);
    for (const auto& [name, v] : ExtractSection(line, "gauges")) {
      agg.gauges[name] += v;
    }
  }
  return by_scheduler;
}

int DiffJsonl(const std::vector<std::string>& a,
              const std::vector<std::string>& b, double threshold) {
  const auto aggs_a = AggregateJsonl(a);
  const auto aggs_b = AggregateJsonl(b);
  DiffCounts counts;
  for (const auto& [scheduler, agg_a] : aggs_a) {
    const auto it = aggs_b.find(scheduler);
    if (it == aggs_b.end()) {
      std::printf("%s: only in A\n", scheduler.c_str());
      continue;
    }
    const auto& agg_b = it->second;
    std::printf("%s — %d vs %d epochs\n", scheduler.c_str(), agg_a.epochs,
                agg_b.epochs);
    gl::Table t({"metric", "A", "B", "delta", "flag"});
    DiffRow(t, "epochs", agg_a.epochs, agg_b.epochs, true, threshold, counts);
    for (const auto& [name, va] : agg_a.metrics) {
      const auto vb = agg_b.metrics.find(name);
      DiffRow(t, name, va, vb == agg_b.metrics.end() ? 0.0 : vb->second, true,
              threshold, counts);
    }
    for (const auto& [name, va] : agg_a.counters) {
      const auto vb = agg_b.counters.find(name);
      DiffRow(t, "counter " + name, va,
              vb == agg_b.counters.end() ? 0.0 : vb->second, true, threshold,
              counts);
    }
    DiffRow(t, "wall_ms (info)", agg_a.wall_ms, agg_b.wall_ms, false,
            threshold, counts);
    for (const auto& [name, va] : agg_a.gauges) {
      const auto vb = agg_b.gauges.find(name);
      if (vb == agg_b.gauges.end()) continue;
      DiffRow(t, "gauge " + name + " (info)", va / agg_a.epochs,
              vb->second / agg_b.epochs, false, threshold, counts);
    }
    t.Print();
  }
  for (const auto& [scheduler, agg_b] : aggs_b) {
    if (aggs_a.find(scheduler) == aggs_a.end()) {
      std::printf("%s: only in B\n", scheduler.c_str());
    }
  }
  std::printf("diff: %d deterministic difference(s), %d informational "
              "drift flag(s) beyond %.0f%%\n",
              counts.determ_diffs, counts.drift_flags, 100.0 * threshold);
  // Deterministic sections must match byte-for-meaning between same-seed
  // runs (DESIGN.md §8); drift in the informational tail never fails the
  // diff — shared CI runners make wall time an unreliable signal.
  return counts.determ_diffs > 0 ? 1 : 0;
}

// One bench --json record; the telemetry fields are optional (older files
// omit them) and compare only when present in both inputs.
struct BenchRecord {
  double wall_ms = 0.0;
  double median_wall_ms = 0.0;
  double parallel_efficiency = -1.0;  // < 0 = absent
  double critical_path_ms = -1.0;
  double peak_bytes = -1.0;
};

std::map<std::string, BenchRecord> ParseBenchJson(const std::string& text) {
  std::map<std::string, BenchRecord> records;
  const std::string pat = "{\"name\":\"";
  std::size_t at = text.find(pat);
  while (at != std::string::npos) {
    const std::size_t next = text.find(pat, at + pat.size());
    const std::string chunk =
        text.substr(at, (next == std::string::npos ? text.size() : next) - at);
    at = next;
    const std::string key =
        ExtractString(chunk, "name") + " t" +
        std::to_string(static_cast<int>(ExtractNumber(chunk, "threads", 0.0)));
    BenchRecord r;
    r.wall_ms = ExtractNumber(chunk, "wall_ms", 0.0);
    r.median_wall_ms = ExtractNumber(chunk, "median_wall_ms", 0.0);
    r.parallel_efficiency = ExtractNumber(chunk, "parallel_efficiency", -1.0);
    r.critical_path_ms = ExtractNumber(chunk, "critical_path_ms", -1.0);
    r.peak_bytes = ExtractNumber(chunk, "peak_bytes", -1.0);
    records[key] = r;
  }
  return records;
}

int DiffBench(const std::string& text_a, const std::string& text_b,
              double threshold) {
  const auto recs_a = ParseBenchJson(text_a);
  const auto recs_b = ParseBenchJson(text_b);
  DiffCounts counts;
  gl::Table t({"configuration / metric", "A", "B", "delta", "flag"});
  for (const auto& [key, ra] : recs_a) {
    const auto it = recs_b.find(key);
    if (it == recs_b.end()) {
      std::printf("%s: only in A\n", key.c_str());
      continue;
    }
    const auto& rb = it->second;
    DiffRow(t, key + " median_wall_ms", ra.median_wall_ms, rb.median_wall_ms,
            false, threshold, counts);
    if (ra.parallel_efficiency >= 0 && rb.parallel_efficiency >= 0) {
      DiffRow(t, key + " parallel_efficiency", ra.parallel_efficiency,
              rb.parallel_efficiency, false, threshold, counts);
    }
    if (ra.critical_path_ms >= 0 && rb.critical_path_ms >= 0) {
      DiffRow(t, key + " critical_path_ms", ra.critical_path_ms,
              rb.critical_path_ms, false, threshold, counts);
    }
    if (ra.peak_bytes >= 0 && rb.peak_bytes >= 0) {
      DiffRow(t, key + " peak_bytes", ra.peak_bytes, rb.peak_bytes, false,
              threshold, counts);
    }
  }
  for (const auto& [key, rb] : recs_b) {
    if (recs_a.find(key) == recs_a.end()) {
      std::printf("%s: only in B\n", key.c_str());
    }
  }
  t.Print();
  std::printf("diff: %d informational drift flag(s) beyond %.0f%%\n",
              counts.drift_flags, 100.0 * threshold);
  return 0;
}

int Diff(const std::string& path_a, const std::string& path_b,
         double threshold) {
  std::vector<std::string> lines_a, lines_b;
  if (!ReadLines(path_a, lines_a) || !ReadLines(path_b, lines_b)) return 2;
  if (lines_a.empty() || lines_b.empty()) {
    std::fprintf(stderr, "gl_report diff: empty input\n");
    return 2;
  }
  const bool jsonl_a = lines_a.front().rfind(kSchemaPrefix, 0) == 0;
  const bool jsonl_b = lines_b.front().rfind(kSchemaPrefix, 0) == 0;
  if (jsonl_a != jsonl_b) {
    std::fprintf(stderr,
                 "gl_report diff: inputs are different kinds (one gl.epoch.v1 "
                 "stream, one bench JSON)\n");
    return 2;
  }
  if (jsonl_a) return DiffJsonl(lines_a, lines_b, threshold);
  std::string text_a, text_b;
  for (const auto& l : lines_a) text_a += l;
  for (const auto& l : lines_b) text_b += l;
  if (text_a.find('[') == std::string::npos ||
      text_b.find('[') == std::string::npos) {
    std::fprintf(stderr, "gl_report diff: inputs are neither gl.epoch.v1 "
                         "streams nor bench JSON arrays\n");
    return 2;
  }
  return DiffBench(text_a, text_b, threshold);
}

// --- run -------------------------------------------------------------------

struct RunArgs {
  std::string scenario = "twitter";
  std::string schedulers = "goldilocks,borg";
  int epochs = -1;
  std::uint64_t seed = 0xfeed;
  std::string jsonl;  // empty = keep in memory only
  std::string trace;  // empty = no Chrome trace file
};

int Run(const RunArgs& args) {
  std::unique_ptr<gl::Scenario> scenario;
  if (args.scenario == "twitter") {
    gl::TwitterScenarioOptions opts;
    if (args.epochs > 0) opts.num_epochs = args.epochs;
    scenario = gl::MakeTwitterCachingScenario(opts);
  } else if (args.scenario == "azure") {
    gl::AzureScenarioOptions opts;
    if (args.epochs > 0) opts.num_epochs = args.epochs;
    scenario = gl::MakeAzureMixScenario(opts);
  } else {
    std::fprintf(stderr, "unknown scenario: %s\n", args.scenario.c_str());
    return 2;
  }
  const auto names = SplitCommas(args.schedulers);
  if (names.empty()) {
    std::fprintf(stderr, "no schedulers given\n");
    return 2;
  }
  for (const auto& name : names) {
    if (gl::MakeNamedScheduler(name) == nullptr) {
      std::fprintf(stderr, "unknown scheduler: %s\n", name.c_str());
      return 2;
    }
  }

  std::string sink;
  std::unique_ptr<gl::obs::RunLogger> logger;
  if (args.jsonl.empty()) {
    logger = std::make_unique<gl::obs::RunLogger>(&sink);
  } else {
    logger = std::make_unique<gl::obs::RunLogger>(args.jsonl);
  }
  if (!logger->ok()) return 1;

  gl::obs::Trace trace;
  trace.Activate();

  const gl::Topology topo = gl::Topology::Testbed16();
  gl::RunnerOptions opts;
  opts.record_state_hashes = true;
  opts.obs.logger = logger.get();
  const gl::ExperimentRunner runner(*scenario, topo, opts);

  std::printf("gl_report run: scenario=%s epochs=%d schedulers=%s\n",
              scenario->name().c_str(), scenario->num_epochs(),
              args.schedulers.c_str());
  std::vector<gl::ExperimentResult> results;
  for (const auto& name : names) {
    auto scheduler = gl::MakeNamedScheduler(name, 0.70, args.seed);
    results.push_back(runner.Run(*scheduler));
  }
  trace.Deactivate();

  gl::PrintBanner("per-policy averages");
  gl::Table avg({"policy", "servers", "power W", "TCT ms", "J/req",
                 "epoch ms"});
  for (const auto& r : results) {
    const auto m = r.Average();
    avg.AddRow({r.scheduler, gl::Table::Int(m.active_servers),
                gl::Table::Num(m.total_watts, 0),
                gl::Table::Num(m.mean_tct_ms, 2),
                gl::Table::Num(m.energy_per_request_j, 4),
                gl::Table::Num(m.wall_ms, 3)});
  }
  avg.Print();

  gl::PrintBanner("trace phase summary (inclusive ms, informational)");
  gl::Table phases({"span", "count", "total ms", "max ms"});
  for (const auto& s : trace.Summary()) {
    phases.AddRow({s.name, gl::Table::Int(static_cast<long long>(s.count)),
                   gl::Table::Num(s.total_ms, 2), gl::Table::Num(s.max_ms, 3)});
  }
  phases.Print();

  if (args.jsonl.empty()) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < sink.size()) {
      const std::size_t nl = sink.find('\n', start);
      const std::size_t end = nl == std::string::npos ? sink.size() : nl;
      if (end > start) lines.push_back(sink.substr(start, end - start));
      start = end + 1;
    }
    PrintTables(lines);
  } else {
    std::printf("wrote %llu JSONL records to %s\n",
                static_cast<unsigned long long>(logger->lines_written()),
                args.jsonl.c_str());
  }
  if (!args.trace.empty()) {
    if (!trace.WriteChromeJson(args.trace)) return 1;
    std::printf("wrote Chrome trace to %s (load at chrome://tracing)\n",
                args.trace.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gl_report run   [--scenario=twitter|azure] [--schedulers=a,b,...]\n"
      "                  [--epochs=N] [--seed=N] [--jsonl=PATH] "
      "[--trace=PATH]\n"
      "  gl_report tables FILE.jsonl\n"
      "  gl_report check  A.jsonl B.jsonl\n"
      "  gl_report profile TRACE.json [--root=NAME] [--top=N]\n"
      "  gl_report flame  TRACE.json [--out=PATH]\n"
      "  gl_report diff   A B [--threshold=FRACTION]   (two gl.epoch.v1\n"
      "                   streams or two bench --json files; default 0.10)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];

  if (mode == "check") {
    if (argc != 4) return Usage();
    return Check(argv[2], argv[3]);
  }
  if (mode == "tables") {
    if (argc != 3) return Usage();
    std::vector<std::string> lines;
    std::vector<int> numbers;
    if (!ReadLines(argv[2], lines, &numbers)) return 1;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind(kSchemaPrefix, 0) != 0) continue;
      const std::string error = ValidateEpochRecord(lines[i]);
      if (!error.empty()) {
        std::fprintf(stderr, "gl_report: %s:%d: %s\n", argv[2], numbers[i],
                     error.c_str());
        return 1;
      }
    }
    PrintTables(lines);
    return 0;
  }
  if (mode == "profile") {
    if (argc < 3) return Usage();
    std::string root, value;
    int top_n = 15;
    for (int i = 3; i < argc; ++i) {
      if (ParseFlag(argv[i], "--root=", root)) continue;
      if (ParseFlag(argv[i], "--top=", value)) {
        top_n = std::max(1, std::atoi(value.c_str()));
        continue;
      }
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
    return ProfileCmd(argv[2], root, top_n);
  }
  if (mode == "flame") {
    if (argc < 3) return Usage();
    std::string out_path;
    for (int i = 3; i < argc; ++i) {
      if (ParseFlag(argv[i], "--out=", out_path)) continue;
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
    return FlameCmd(argv[2], out_path);
  }
  if (mode == "diff") {
    if (argc < 4) return Usage();
    double threshold = 0.10;
    std::string value;
    for (int i = 4; i < argc; ++i) {
      if (ParseFlag(argv[i], "--threshold=", value)) {
        threshold = std::strtod(value.c_str(), nullptr);
        continue;
      }
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
    return Diff(argv[2], argv[3], threshold);
  }
  if (mode == "run") {
    RunArgs args;
    for (int i = 2; i < argc; ++i) {
      std::string value;
      if (ParseFlag(argv[i], "--scenario=", args.scenario) ||
          ParseFlag(argv[i], "--schedulers=", args.schedulers) ||
          ParseFlag(argv[i], "--jsonl=", args.jsonl) ||
          ParseFlag(argv[i], "--trace=", args.trace)) {
        continue;
      }
      if (ParseFlag(argv[i], "--epochs=", value)) {
        args.epochs = std::atoi(value.c_str());
        continue;
      }
      if (ParseFlag(argv[i], "--seed=", value)) {
        args.seed = std::strtoull(value.c_str(), nullptr, 0);
        continue;
      }
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
    return Run(args);
  }
  return Usage();
}
