// Cross-file analysis for gl_analyze (DESIGN.md §12).
//
// Per-file facts (tools/analyze/facts.h) merge into a whole-program symbol
// index here: a name-keyed call graph over every function definition seen.
// The rules then resolve:
//
//   GL001–GL009                  the determinism-contract patterns
//                                (DESIGN.md §8/§9): GL001 loops over
//                                unordered containers, resolved across
//                                files; GL004 pointer-keyed containers; the
//                                rest per-file PatternHit facts
//   GL010 alloc-in-hot-path      allocation sites in any function reachable
//                                from a hot root (default: Bisect,
//                                FitRecurse, every FmEngine method)
//   GL011 unguarded-shared-member  mutable members of mutex-owning classes
//                                lacking GL_GUARDED_BY (facts-level,
//                                surfaced here)
//   GL012 nondet-float-fold      float accumulation into captured locals
//                                inside ParallelFor bodies (facts-level)
//
// Call edges match by bare name, so reachability is an over-approximation —
// the safe direction for GL010: the analyzer can prove "no allocator call is
// reachable", never the reverse.
//
// Findings carry a (rule, trimmed-line-text) fingerprint; the committed
// baseline (tools/analyze/baseline.txt) suppresses known-accepted findings
// by that fingerprint plus a path-suffix match, which survives both
// absolute-path (ctest) and relative-path (check.sh, CI) invocations as
// well as unrelated line drift.
#pragma once

#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "analyze/dataflow.h"
#include "analyze/facts.h"

namespace gl::analyze {

struct RuleInfo {
  const char* id;       // "GL010"
  const char* name;     // "alloc-in-hot-path"
  const char* summary;  // one-line description for --list-rules / SARIF
};

// The rule catalog (GL001–GL012, GL014–GL022), in id order.
[[nodiscard]] const std::vector<RuleInfo>& Rules();

// Parses a --rule=GL010,GL017 spec into rule ids. Returns false (with *err
// set) when a spec names an id Rules() does not know.
[[nodiscard]] bool ParseRuleFilter(const std::string& spec,
                                   std::set<std::string>* ids,
                                   std::string* err);

struct Finding {
  std::string rule_id;
  std::string rule_name;
  std::string path;
  int line = 0;
  std::string line_text;  // trimmed source line: the baseline fingerprint
  std::string message;
};

struct AnalysisOptions {
  // Hot-path roots for GL010. A plain name matches every function with that
  // bare name; a "Class::" spec matches every method of that class.
  std::vector<std::string> hot_roots = {"Bisect", "FitRecurse",
                                        "FmEngine::"};
};

// Wall-clock per analysis phase (--stats). Lex/facts time lives in LoadFacts
// and is measured by the caller around that call.
struct AnalyzeTimings {
  double callgraph_ms = 0;  // symbol index + hot-root reachability
  double dataflow_ms = 0;   // GL014–GL016 fixpoints
  double cfg_ms = 0;        // GL017–GL021 path walks
};

// Runs all rules over the merged facts. Findings come back sorted by
// (path, line, rule id) so output is stable across runs and platforms.
// The longer overloads also fill the GL014 units coverage report (see
// dataflow.h) and the per-phase timings when non-null.
[[nodiscard]] std::vector<Finding> Analyze(const std::vector<FileFacts>& files,
                                           const AnalysisOptions& opts);
[[nodiscard]] std::vector<Finding> Analyze(const std::vector<FileFacts>& files,
                                           const AnalysisOptions& opts,
                                           UnitsReport* units);
[[nodiscard]] std::vector<Finding> Analyze(const std::vector<FileFacts>& files,
                                           const AnalysisOptions& opts,
                                           UnitsReport* units,
                                           AnalyzeTimings* timings);

// --- baseline --------------------------------------------------------------

struct Baseline {
  struct Entry {
    std::string rule_id;
    std::string path;       // repo-relative; matched as a path suffix
    std::string line_text;  // trimmed source line
    int file_line = 0;      // line in the baseline file (for stale warnings)
  };
  std::vector<Entry> entries;
};

// Parses `RULE|path|line text` lines; '#' and blank lines are comments.
// Returns false (with *err set) on unreadable files or malformed lines.
[[nodiscard]] bool LoadBaseline(const std::string& path, Baseline* out,
                                std::string* err);

// Entries that match nothing split by their file: one for a file the run
// scanned blesses nothing and fails the run like a finding; one for a file
// outside the scanned paths may still bless a finding there (`gl_analyze
// src` with the whole-tree baseline) and is only listed.
struct BaselineResult {
  std::vector<Finding> fresh;              // not covered by any entry
  int suppressed = 0;                      // findings matched by an entry
  std::vector<Baseline::Entry> stale;      // unmatched, file scanned
  std::vector<Baseline::Entry> elsewhere;  // unmatched, file not scanned
};

[[nodiscard]] BaselineResult ApplyBaseline(
    const std::vector<Finding>& all, const Baseline& baseline,
    const std::vector<std::string>& scanned_paths);

// Renders findings in baseline-file format (for --write-baseline).
[[nodiscard]] std::string FormatBaseline(const std::vector<Finding>& all);

// --- SARIF -----------------------------------------------------------------

// SARIF 2.1.0 document for GitHub code scanning upload.
[[nodiscard]] std::string ToSarif(const std::vector<Finding>& findings);

// --- incremental cache -----------------------------------------------------

struct CacheStats {
  int files_total = 0;
  int files_cached = 0;  // facts reused from the cache
  int files_lexed = 0;   // facts re-extracted from source
};

// Extracts facts for every path, consulting (and rewriting) the cache file
// when `cache_path` is non-empty. A cache entry is reused when mtime+size
// match the stat, or — after an mtime-only change — when the content hash
// still matches. Unreadable source files are reported via *err and skipped.
// `jobs` > 1 extracts cache-missing files on that many threads; results
// (facts order, cache bytes, error text) are byte-identical to jobs == 1 —
// only per-file extraction parallelizes, every merge is in path order.
// `config_hash` fingerprints everything outside the sources that can change
// a verdict (baseline bytes, active rule set, flags); it is written into the
// cache header, so a config change invalidates the whole cache rather than
// serving stale verdicts.
[[nodiscard]] std::vector<FileFacts> LoadFacts(
    const std::vector<std::string>& paths, const std::string& cache_path,
    CacheStats* stats, std::string* err, int jobs = 1,
    std::uint64_t config_hash = 0);

// --- fixture self-test -----------------------------------------------------

// Runs every *.cc under `fixtures_dir` through single-file analysis and
// compares fired rule ids against the file's `// gl-analyze-expect:` header
// ("clean" or a comma-separated rule-id list). Prints one PASS/FAIL line per
// fixture to `out`; returns the number of failures (>0 also when the corpus
// is empty or a fixture lacks a header). A non-empty `rules` runs only the
// fixtures named for those rules (file name "glNNN_..." for rule GLNNN).
[[nodiscard]] int RunSelfTest(const std::string& fixtures_dir,
                              const AnalysisOptions& opts, std::ostream& out,
                              const std::set<std::string>& rules = {});

}  // namespace gl::analyze
