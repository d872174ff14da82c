#include "analyze/analysis.h"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analyze/cfg.h"
#include "analyze/dataflow.h"
#include "common/json_writer.h"
#include "common/thread_pool.h"
#include "obs/clock.h"

namespace gl::analyze {
namespace {

constexpr char kRuleAlloc[] = "GL010";
constexpr char kRuleGuard[] = "GL011";
constexpr char kRuleFold[] = "GL012";

[[nodiscard]] std::string AllocKindLabel(AllocKind kind) {
  switch (kind) {
    case AllocKind::kNew:
      return "new expression";
    case AllocKind::kAllocCall:
      return "allocator call";
    case AllocKind::kInducedSubgraph:
      return "materializes an induced subgraph";
    case AllocKind::kLocalInit:
      return "local container constructed with contents";
    case AllocKind::kLocalGrowth:
      return "growth of a local container";
  }
  return "allocation";
}

// True when one path is a '/'-boundary suffix of the other. Findings carry
// whatever path the invoker passed (absolute under ctest, relative under
// check.sh), baseline entries are committed repo-relative; suffix matching
// makes them agree.
[[nodiscard]] bool PathSuffixMatch(const std::string& a,
                                   const std::string& b) {
  if (a == b) return true;
  const std::string& longer = a.size() > b.size() ? a : b;
  const std::string& shorter = a.size() > b.size() ? b : a;
  return longer.size() > shorter.size() + 1 &&
         longer.ends_with(shorter) &&
         longer[longer.size() - shorter.size() - 1] == '/';
}

void AnalyzeHotPath(const std::vector<FileFacts>& files,
                    const SymbolIndex& index, const HotReach& hot,
                    std::vector<Finding>* out) {
  // Reachability (and the parent chain for messages) comes precomputed from
  // ComputeHotReach (cfg.cc) — it is shared with GL019.
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    const FileFacts& f = files[static_cast<std::size_t>(fi)];
    for (const AllocSite& a : f.allocs) {
      const FuncRef ref{fi, a.func};
      if (!hot.Reached(ref)) continue;
      const std::string via = hot.Chain(index, ref);
      Finding fd;
      fd.rule_id = kRuleAlloc;
      fd.rule_name = "alloc-in-hot-path";
      fd.path = f.path;
      fd.line = a.line;
      fd.line_text = a.line_text;
      fd.message = AllocKindLabel(a.kind) + " (" + a.detail +
                   ") on the hot path: " + via;
      out->push_back(std::move(fd));
    }
  }
}

// GL022: a hot-path function whose body spans more than this many source
// lines should open a TraceSpan, or profiles attribute its whole cost to
// the nearest instrumented ancestor. Deliberate leaf kernels (the FM inner
// loops) are blessed in the baseline instead of lowering the threshold.
constexpr int kSpanCoverageMinBodyLines = 40;

void AnalyzeSpanCoverage(const std::vector<FileFacts>& files,
                         const SymbolIndex& index, const HotReach& hot,
                         std::vector<Finding>* out) {
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    const FileFacts& f = files[static_cast<std::size_t>(fi)];
    std::set<int> with_span;
    for (const CallSite& c : f.calls) {
      if (c.callee == "TraceSpan") with_span.insert(c.func);
    }
    for (int fn = 0; fn < static_cast<int>(f.functions.size()); ++fn) {
      const FunctionDef& d = f.functions[static_cast<std::size_t>(fn)];
      const int body_lines = d.body_end_line - d.line;
      if (body_lines <= kSpanCoverageMinBodyLines) continue;
      const FuncRef ref{fi, fn};
      if (!hot.Reached(ref)) continue;
      if (with_span.count(fn) > 0) continue;
      Finding fd;
      fd.rule_id = "GL022";
      fd.rule_name = "missing-span-coverage";
      fd.path = f.path;
      fd.line = d.line;
      fd.line_text = d.line_text;
      fd.message = "hot-path function '" +
                   (d.class_name.empty() ? d.name
                                         : d.class_name + "::" + d.name) +
                   "' spans " + std::to_string(body_lines) +
                   " lines with no TraceSpan (" + hot.Chain(index, ref) +
                   "); open one so profiles can attribute its time";
      out->push_back(std::move(fd));
    }
  }
}

// GL001–GL009: the determinism-contract patterns of one file. The message
// is the offending token or name followed by the rule's summary.
void AnalyzeContract(const FileFacts& f,
                     const std::vector<std::string_view>& loop_orders,
                     std::vector<Finding>* out) {
  const auto add = [&](const char* id, int line, const std::string& line_text,
                       const std::string& detail) {
    const RuleInfo& r = *std::find_if(
        Rules().begin(), Rules().end(),
        [&](const RuleInfo& info) { return std::string_view(info.id) == id; });
    out->push_back(
        {id, r.name, f.path, line, line_text, detail + ": " + r.summary});
  };
  for (std::size_t i = 0; i < f.loops.size(); ++i) {
    if (loop_orders[i] == "unordered-iter") {
      add("GL001", f.loops[i].line, f.loops[i].line_text,
          "loop over '" + f.loops[i].container + "'");
    }
  }
  for (const ContainerDecl& d : f.containers) {
    if (d.pointer_key) {
      add("GL004", d.line, d.line_text,
          d.name.empty() ? "pointer-keyed type" : "'" + d.name + "'");
    }
  }
  for (const PatternHit& w : f.pattern_hits) {
    add(w.rule_id.c_str(), w.line, w.line_text, "'" + w.detail + "'");
  }
}

[[nodiscard]] std::string ReadWholeFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"GL001", "unordered-iter",
       "loop over an unordered container: hash-bucket order is unspecified "
       "and varies across standard libraries; iterate a SortedItems() / "
       "SortedKeys() snapshot (common/stable_map.h) or an ordered container "
       "(DESIGN.md §8)"},
      {"GL002", "adhoc-rng",
       "random-number source other than gl::Rng (common/rng.h): std engines, "
       "distributions and rand() bit-streams are unspecified across standard "
       "libraries and break seed replay (DESIGN.md §8)"},
      {"GL003", "time-seed",
       "wall-clock, timer or process-id value: seeds and decisions must "
       "derive from configuration so runs are replayable (DESIGN.md §8)"},
      {"GL004", "pointer-key",
       "associative container keyed on a pointer: its order follows "
       "allocation addresses, which change run to run under ASLR "
       "(DESIGN.md §8)"},
      {"GL005", "float-eq",
       "raw ==/!= on accumulated resource doubles: compare through the "
       "epsilon helpers in common/resource.h (FitsIn, WithinCap, ApproxEq, "
       "IsZero)"},
      {"GL006", "raw-thread",
       "raw std::thread / std::async / detach: fan out through "
       "ThreadPool::ParallelFor (index-slotted tasks, merged in index order) "
       "so scheduling cannot reorder results (DESIGN.md §9)"},
      {"GL007", "global-state",
       "mutable namespace-scope state outlives the run that wrote it, is "
       "shared across threads and is invisible to seed replay; pass it "
       "explicitly or make it const/constexpr (DESIGN.md §9)"},
      {"GL008", "unguarded-mutex",
       "class owns a mutex but annotates no member with GL_GUARDED_BY, so "
       "Clang's -Wthread-safety cannot check its lock discipline "
       "(DESIGN.md §9)"},
      {"GL009", "raw-clock",
       "raw std::chrono steady_clock / high_resolution_clock: time through "
       "obs::WallTimer / obs::MonotonicMicros (obs/clock.h) so wall timings "
       "stay informational (DESIGN.md §8)"},
      {kRuleAlloc, "alloc-in-hot-path",
       "allocation reachable from the partitioner hot path (DESIGN.md §11: "
       "zero-allocation steady state)"},
      {kRuleGuard, "unguarded-shared-member",
       "mutable member of a mutex-owning class lacks GL_GUARDED_BY "
       "(DESIGN.md §9)"},
      {kRuleFold, "nondet-float-fold",
       "float accumulation inside a ParallelFor body is schedule-dependent "
       "(DESIGN.md §8: fold in canonical index order)"},
      {"GL014", "unit-confusion",
       "mixed physical dimensions in arithmetic, comparison, assignment or "
       "argument binding (DESIGN.md §13: GL_UNITS lattice)"},
      {"GL015", "lock-order-cycle",
       "two locks are acquired in opposite orders somewhere in the call "
       "graph: potential deadlock (DESIGN.md §9)"},
      {"GL016", "determinism-taint",
       "nondeterministic value (clock, rand, unordered iteration) flows "
       "into a state hash or deterministic counter (DESIGN.md §8)"},
      {"GL017", "lock-path-leak",
       "a manual .Lock() can reach function exit without its .Unlock() on "
       "some path (DESIGN.md §14; prefer gl::MutexLock)"},
      {"GL018", "use-after-invalidation",
       "a reference/index obtained from scratch state or a vector is used "
       "after a Clear()/Reset()/growth call on some path (DESIGN.md §14)"},
      {"GL019", "loop-carried-allocation",
       "allocation or container growth inside a loop of a hot-path function "
       "(DESIGN.md §14; sharpens GL010 to per-iteration cost)"},
      {"GL020", "unguarded-narrowing",
       "64-bit value narrowed to a 32-bit vertex-id type with no dominating "
       "bounds check on the path (DESIGN.md §14)"},
      {"GL021", "divergent-parallel-update",
       "deterministic counter or state-hash write guarded by a "
       "thread-varying branch inside a ParallelFor body (DESIGN.md §14)"},
      {"GL022", "missing-span-coverage",
       "hot-path function longer than the span-coverage threshold opens no "
       "TraceSpan, so profiles attribute its time to the caller (DESIGN.md "
       "§15)"},
  };
  return kRules;
}

bool ParseRuleFilter(const std::string& spec, std::set<std::string>* ids,
                     std::string* err) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string id = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (id.empty()) continue;
    const bool known =
        std::any_of(Rules().begin(), Rules().end(),
                    [&](const RuleInfo& r) { return id == r.id; });
    if (!known) {
      *err = "unknown rule id in --rule=: " + id;
      return false;
    }
    ids->insert(id);
  }
  if (ids->empty()) {
    *err = "--rule= selects no rules";
    return false;
  }
  return true;
}

std::vector<Finding> Analyze(const std::vector<FileFacts>& files,
                             const AnalysisOptions& opts) {
  return Analyze(files, opts, nullptr, nullptr);
}

std::vector<Finding> Analyze(const std::vector<FileFacts>& files,
                             const AnalysisOptions& opts,
                             UnitsReport* units) {
  return Analyze(files, opts, units, nullptr);
}

std::vector<Finding> Analyze(const std::vector<FileFacts>& files,
                             const AnalysisOptions& opts, UnitsReport* units,
                             AnalyzeTimings* timings) {
  std::vector<Finding> out;
  const obs::WallTimer timer;
  const SymbolIndex index(files);
  const HotReach hot = ComputeHotReach(files, index, opts.hot_roots);
  const double callgraph_ms = timer.ElapsedMs();
  AnalyzeHotPath(files, index, hot, &out);
  AnalyzeSpanCoverage(files, index, hot, &out);
  const LoopOrders loop_orders = ResolveLoopOrders(files);
  AnalyzeDataflow(files, index, loop_orders, &out, units);
  const double dataflow_ms = timer.ElapsedMs();
  AnalyzeCfg(files, index, hot, &out);
  if (timings != nullptr) {
    timings->callgraph_ms = callgraph_ms;
    timings->dataflow_ms = dataflow_ms - callgraph_ms;
    timings->cfg_ms = timer.ElapsedMs() - dataflow_ms;
  }

  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileFacts& f = files[fi];
    AnalyzeContract(f, loop_orders[fi], &out);
    for (const UnguardedMember& m : f.unguarded) {
      Finding fd;
      fd.rule_id = kRuleGuard;
      fd.rule_name = "unguarded-shared-member";
      fd.path = f.path;
      fd.line = m.line;
      fd.line_text = m.line_text;
      fd.message = "member '" + m.member + "' of mutex-owning class '" +
                   m.class_name +
                   "' has no GL_GUARDED_BY annotation; annotate it or mark "
                   "why it needs none in the baseline";
      out.push_back(std::move(fd));
    }
    for (const FloatFold& x : f.float_folds) {
      Finding fd;
      fd.rule_id = kRuleFold;
      fd.rule_name = "nondet-float-fold";
      fd.path = f.path;
      fd.line = x.line;
      fd.line_text = x.line_text;
      fd.message = "float accumulation into captured '" + x.var +
                   "' inside a ParallelFor body in '" + x.function +
                   "' depends on worker schedule; write per-index slots and "
                   "fold in canonical order";
      out.push_back(std::move(fd));
    }
  }

  std::sort(out.begin(), out.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule_id != b.rule_id) return a.rule_id < b.rule_id;
              return a.message < b.message;
            });
  // Exact duplicates happen when one source line matches a pattern twice
  // (e.g. nested vector<vector<T>> declarations); report each once.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.path == b.path && a.line == b.line &&
                                 a.rule_id == b.rule_id &&
                                 a.message == b.message;
                        }),
            out.end());
  return out;
}

// --- baseline --------------------------------------------------------------

bool LoadBaseline(const std::string& path, Baseline* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot open baseline file: " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t p1 = line.find('|');
    const std::size_t p2 = p1 == std::string::npos ? p1 : line.find('|', p1 + 1);
    if (p2 == std::string::npos) {
      *err = path + ":" + std::to_string(lineno) +
             ": malformed baseline entry (want RULE|path|line text)";
      return false;
    }
    Baseline::Entry e;
    e.rule_id = line.substr(0, p1);
    e.path = line.substr(p1 + 1, p2 - p1 - 1);
    e.line_text = line.substr(p2 + 1);
    e.file_line = lineno;
    out->entries.push_back(std::move(e));
  }
  return true;
}

BaselineResult ApplyBaseline(const std::vector<Finding>& all,
                             const Baseline& baseline,
                             const std::vector<std::string>& scanned_paths) {
  BaselineResult r;
  std::vector<bool> hit(baseline.entries.size(), false);
  for (const Finding& f : all) {
    bool matched = false;
    for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
      const Baseline::Entry& e = baseline.entries[i];
      if (e.rule_id == f.rule_id && e.line_text == f.line_text &&
          PathSuffixMatch(e.path, f.path)) {
        hit[i] = true;
        matched = true;
      }
    }
    if (matched) {
      ++r.suppressed;
    } else {
      r.fresh.push_back(f);
    }
  }
  for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
    if (hit[i]) continue;
    const Baseline::Entry& e = baseline.entries[i];
    const bool scanned = std::any_of(
        scanned_paths.begin(), scanned_paths.end(),
        [&](const std::string& p) { return PathSuffixMatch(e.path, p); });
    (scanned ? r.stale : r.elsewhere).push_back(e);
  }
  return r;
}

std::string FormatBaseline(const std::vector<Finding>& all) {
  std::string out =
      "# gl_analyze baseline: accepted findings, one per line.\n"
      "# Format: RULE|repo-relative/path|trimmed source line\n"
      "# An entry suppresses every finding with the same rule, path suffix,\n"
      "# and line text. Keep a justification comment above each entry.\n";
  for (const Finding& f : all) {
    out += f.rule_id;
    out.push_back('|');
    out += f.path;
    out.push_back('|');
    out += f.line_text;
    out.push_back('\n');
  }
  return out;
}

// --- SARIF -----------------------------------------------------------------

std::string ToSarif(const std::vector<Finding>& findings) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("$schema");
  w.String(
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json");
  w.Key("version");
  w.String("2.1.0");
  w.Key("runs");
  w.BeginArray();
  w.BeginObject();
  w.Key("tool");
  w.BeginObject();
  w.Key("driver");
  w.BeginObject();
  w.Key("name");
  w.String("gl_analyze");
  w.Key("informationUri");
  w.String("DESIGN.md");
  w.Key("version");
  w.String("1.0.0");
  w.Key("rules");
  w.BeginArray();
  for (const RuleInfo& r : Rules()) {
    w.BeginObject();
    w.Key("id");
    w.String(r.id);
    w.Key("name");
    w.String(r.name);
    w.Key("shortDescription");
    w.BeginObject();
    w.Key("text");
    w.String(r.summary);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();  // driver
  w.EndObject();  // tool
  w.Key("results");
  w.BeginArray();
  for (const Finding& f : findings) {
    w.BeginObject();
    w.Key("ruleId");
    w.String(f.rule_id);
    w.Key("level");
    w.String("error");
    w.Key("message");
    w.BeginObject();
    w.Key("text");
    w.String(f.message);
    w.EndObject();
    w.Key("locations");
    w.BeginArray();
    w.BeginObject();
    w.Key("physicalLocation");
    w.BeginObject();
    w.Key("artifactLocation");
    w.BeginObject();
    w.Key("uri");
    w.String(f.path);
    w.EndObject();
    w.Key("region");
    w.BeginObject();
    w.Key("startLine");
    w.Int(f.line > 0 ? f.line : 1);
    w.EndObject();
    w.EndObject();  // physicalLocation
    w.EndObject();  // location
    w.EndArray();
    w.EndObject();  // result
  }
  w.EndArray();
  w.EndObject();  // run
  w.EndArray();
  w.EndObject();
  out.push_back('\n');
  return out;
}

// --- incremental cache -----------------------------------------------------

namespace {

struct CacheEntry {
  std::int64_t mtime_ns = 0;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  std::string blob;  // serialized FileFacts
};

[[nodiscard]] bool StatFile(const std::string& path, std::int64_t* mtime_ns,
                            std::uint64_t* size) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return false;
  *mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec;
  *size = static_cast<std::uint64_t>(st.st_size);
  return true;
}

// Cache file format (v5 adds the GL001–GL009 records — PatternHit,
// ContainerDecl, RangeLoop — and drops the allow()-comment records; v6
// gives a RangeLoop every structured binding and member terms their root
// local; older blobs are rejected by the header check and simply
// re-extracted):
//   glcache v6 <config hash hex>
//   file <path>\t<mtime_ns>\t<size>\t<hash hex>
//   <serialized facts lines>
//   end
// The config hash covers baseline bytes and the active rule/flag set
// (LoadFacts doc): facts themselves are config-independent, but the cached
// *verdict* a CI run restores is not — a baseline edit or rule change must
// not serve a stale pass/fail.
[[nodiscard]] std::string CacheHeader(std::uint64_t config_hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(config_hash));
  return std::string("glcache v6 ") + buf;
}

void ParseCacheFile(const std::string& path, const std::string& header_line,
                    std::unordered_map<std::string, CacheEntry>* out) {
  bool ok = false;
  const std::string blob = ReadWholeFile(path, &ok);
  if (!ok) return;
  std::size_t pos = 0;
  const auto next_line = [&](std::string* line) {
    if (pos >= blob.size()) return false;
    std::size_t nl = blob.find('\n', pos);
    if (nl == std::string::npos) nl = blob.size();
    line->assign(blob, pos, nl - pos);
    pos = nl + 1;
    return true;
  };
  std::string line;
  if (!next_line(&line) || line != header_line) return;
  while (next_line(&line)) {
    if (!line.starts_with("file ")) return;  // malformed: drop the rest
    const std::string header = line.substr(5);
    std::vector<std::string> cols;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= header.size(); ++i) {
      if (i == header.size() || header[i] == '\t') {
        cols.push_back(header.substr(start, i - start));
        start = i + 1;
      }
    }
    if (cols.size() != 4) return;
    CacheEntry e;
    char* end = nullptr;
    e.mtime_ns = std::strtoll(cols[1].c_str(), &end, 10);
    e.size = std::strtoull(cols[2].c_str(), &end, 10);
    e.hash = std::strtoull(cols[3].c_str(), &end, 16);
    while (next_line(&line) && line != "end") {
      e.blob += line;
      e.blob.push_back('\n');
    }
    (*out)[cols[0]] = std::move(e);
  }
}

}  // namespace

std::vector<FileFacts> LoadFacts(const std::vector<std::string>& paths,
                                 const std::string& cache_path,
                                 CacheStats* stats, std::string* err,
                                 int jobs, std::uint64_t config_hash) {
  const std::string header = CacheHeader(config_hash);
  std::unordered_map<std::string, CacheEntry> cache;
  if (!cache_path.empty()) ParseCacheFile(cache_path, header, &cache);

  // Per-path slots, filled in two phases: a serial stat+cache-probe pass
  // and a (possibly parallel) read+extract pass over the misses. Every
  // merge below walks the slots in path order, so the facts vector, the
  // cache bytes and the error text are identical for any `jobs`.
  struct Slot {
    std::int64_t mtime_ns = 0;
    std::uint64_t size = 0;
    bool stat_ok = false;
    bool reused = false;
    bool read_failed = false;
    FileFacts facts;
    CacheEntry fresh;
  };
  std::vector<Slot> slots(paths.size());
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Slot& s = slots[i];
    if (!StatFile(paths[i], &s.mtime_ns, &s.size)) continue;
    s.stat_ok = true;
    const auto it = cache.find(paths[i]);
    if (it != cache.end() && it->second.mtime_ns == s.mtime_ns &&
        it->second.size == s.size &&
        DeserializeFacts(it->second.blob, &s.facts)) {
      s.reused = true;  // stat match: facts reused without reading the file
      s.fresh = it->second;
    } else {
      misses.push_back(i);
    }
  }

  const auto extract_one = [&](std::size_t i) {
    Slot& s = slots[i];
    bool ok = false;
    const std::string source = ReadWholeFile(paths[i], &ok);
    if (!ok) {
      s.read_failed = true;
      return;
    }
    const std::uint64_t hash = HashBytes(source);
    const auto it = cache.find(paths[i]);
    if (it != cache.end() && it->second.hash == hash &&
        DeserializeFacts(it->second.blob, &s.facts)) {
      s.reused = true;  // touched but unchanged: rehash rescued the entry
      s.fresh = it->second;
      s.fresh.mtime_ns = s.mtime_ns;
      s.fresh.size = s.size;
    } else {
      s.facts = ExtractFacts(paths[i], source);
      s.fresh.mtime_ns = s.mtime_ns;
      s.fresh.size = s.size;
      s.fresh.hash = hash;
      SerializeFacts(s.facts, &s.fresh.blob);
    }
  };
  if (!misses.empty()) {
    ThreadPool pool(
        std::min<int>(std::max(jobs, 1), static_cast<int>(misses.size())));
    pool.ParallelFor(misses.size(),
                     [&](std::size_t k) { extract_one(misses[k]); });
  }

  std::vector<FileFacts> out;
  std::map<std::string, CacheEntry> fresh_cache;  // path order: stable bytes
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Slot& s = slots[i];
    ++stats->files_total;
    if (!s.stat_ok || s.read_failed) {
      if (!err->empty()) err->push_back('\n');
      *err += (s.stat_ok ? "cannot read: " : "cannot stat: ") + paths[i];
      continue;
    }
    fresh_cache[paths[i]] = std::move(s.fresh);
    s.facts.path = paths[i];  // cached blobs may carry a stale path spelling
    ++(s.reused ? stats->files_cached : stats->files_lexed);
    out.push_back(std::move(s.facts));
  }

  if (!cache_path.empty()) {
    std::string blob = header + "\n";
    for (const auto& [p, e] : fresh_cache) {
      blob += "file " + p + "\t" + std::to_string(e.mtime_ns) + "\t" +
              std::to_string(e.size) + "\t";
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(e.hash));
      blob += buf;
      blob.push_back('\n');
      blob += e.blob;
      blob += "end\n";
    }
    std::ofstream outf(cache_path, std::ios::binary | std::ios::trunc);
    if (outf) outf << blob;
  }
  return out;
}

// --- fixture self-test -----------------------------------------------------

int RunSelfTest(const std::string& fixtures_dir, const AnalysisOptions& opts,
                std::ostream& os, const std::set<std::string>& rules) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(fixtures_dir, ec)) {
    if (entry.path().extension() != ".cc") continue;
    if (!rules.empty()) {
      std::string id = entry.path().filename().string().substr(0, 5);
      std::transform(id.begin(), id.end(), id.begin(),
                     [](unsigned char c) { return std::toupper(c); });
      if (rules.count(id) == 0) continue;
    }
    paths.push_back(entry.path().string());
  }
  if (ec) {
    os << "FAIL cannot list fixtures dir: " << fixtures_dir << "\n";
    return 1;
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    os << "FAIL no fixtures found in " << fixtures_dir << "\n";
    return 1;
  }

  int failures = 0;
  for (const std::string& path : paths) {
    const std::string base = fs::path(path).filename().string();
    bool ok = false;
    const std::string source = ReadWholeFile(path, &ok);
    if (!ok) {
      os << "FAIL " << base << ": unreadable\n";
      ++failures;
      continue;
    }
    // Expectation header: the first "// gl-analyze-expect:" comment.
    std::set<std::string> expected;
    bool have_header = false;
    {
      const std::size_t at = source.find("gl-analyze-expect:");
      if (at != std::string::npos) {
        have_header = true;
        std::size_t eol = source.find('\n', at);
        if (eol == std::string::npos) eol = source.size();
        std::string list = source.substr(at + 18, eol - at - 18);
        std::size_t pos = 0;
        while (pos <= list.size()) {
          std::size_t comma = list.find(',', pos);
          if (comma == std::string::npos) comma = list.size();
          std::string item = list.substr(pos, comma - pos);
          const auto b = item.find_first_not_of(" \t\r");
          const auto e = item.find_last_not_of(" \t\r");
          if (b != std::string::npos) {
            item = item.substr(b, e - b + 1);
            if (item != "clean") expected.insert(item);
          }
          pos = comma + 1;
        }
      }
    }
    if (!have_header) {
      os << "FAIL " << base << ": missing // gl-analyze-expect: header\n";
      ++failures;
      continue;
    }

    const std::vector<FileFacts> facts = {ExtractFacts(path, source)};
    const std::vector<Finding> findings = Analyze(facts, opts);
    std::set<std::string> fired;
    for (const Finding& f : findings) fired.insert(f.rule_id);

    const auto join = [](const std::set<std::string>& s) {
      if (s.empty()) return std::string("clean");
      std::string j;
      for (const std::string& x : s) {
        if (!j.empty()) j += ",";
        j += x;
      }
      return j;
    };
    if (fired == expected) {
      os << "PASS " << base << " (" << join(expected) << ")\n";
    } else {
      os << "FAIL " << base << ": expected " << join(expected) << ", got "
         << join(fired) << "\n";
      ++failures;
    }
  }
  return failures;
}

}  // namespace gl::analyze
