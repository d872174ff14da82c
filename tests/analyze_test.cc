// Tests for gl_analyze (tools/analyze/): the lexer, the fixture corpus, the
// cross-file GL010 reachability, the baseline machinery (including the exit
// status of a stale entry), SARIF shape, and the incremental cache's
// invalidation behavior.
//
// The fixture corpus itself is exercised two ways: RunSelfTest (the same
// code path `gl_analyze --self-test` uses) and per-fixture assertions that
// positives fire exactly their rule and negatives stay clean.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/facts.h"
#include "analyze/lexer.h"
#include "gtest/gtest.h"

namespace gl::analyze {
namespace {

namespace fs = std::filesystem;

#ifndef GL_ANALYZE_FIXTURES_DIR
#error "tests/CMakeLists.txt must define GL_ANALYZE_FIXTURES_DIR"
#endif

std::string FixturesDir() { return GL_ANALYZE_FIXTURES_DIR; }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

std::set<std::string> FiredRules(const std::string& path) {
  const std::string source = ReadFileOrDie(path);
  const std::vector<FileFacts> facts = {ExtractFacts(path, source)};
  std::set<std::string> fired;
  for (const Finding& f : Analyze(facts, AnalysisOptions{})) {
    fired.insert(f.rule_id);
  }
  return fired;
}

// A scratch directory unique to this test binary run.
class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("gl_analyze_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

// --- lexer -----------------------------------------------------------------

TEST(Lexer, RawStringsAndCommentsAreSingleTokens) {
  const std::vector<Token> toks = Lex(
      "auto s = R\"x(push_back( // not a comment)x\";\n"
      "// a real comment with new in it\n"
      "int n = 1'000'000;\n");
  int strings = 0;
  int comments = 0;
  int numbers = 0;
  for (const Token& t : toks) {
    strings += t.kind == TokKind::kString ? 1 : 0;
    comments += t.kind == TokKind::kComment ? 1 : 0;
    numbers += t.kind == TokKind::kNumber ? 1 : 0;
  }
  EXPECT_EQ(strings, 1);
  EXPECT_EQ(comments, 1);
  EXPECT_EQ(numbers, 1);  // digit separators stay inside one number token
  // Nothing inside the raw string or the comment leaks out as an ident.
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "push_back");
    if (t.kind == TokKind::kIdent) {
      EXPECT_NE(t.text, "new");
    }
  }
}

TEST(Lexer, PreprocessorContinuationsFoldIntoOneToken) {
  const std::vector<Token> toks = Lex(
      "#define GROW(v) \\\n  (v).push_back(0)\nint x;\n");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, TokKind::kPreprocessor);
  EXPECT_NE(toks[0].text.find("push_back"), std::string::npos);
  // The macro body never reads as structural tokens.
  const FileFacts facts = ExtractFacts("m.cc", "#define GROW(v) \\\n  (v).push_back(0)\nint x;\n");
  EXPECT_TRUE(facts.allocs.empty());
}

TEST(Lexer, TracksLinesAcrossMultilineTokens) {
  const std::vector<Token> toks = Lex("/* a\n b */\nint x;\n");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokKind::kComment);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].text, "int");
  EXPECT_EQ(toks[1].line, 3);
}

// --- fixture corpus --------------------------------------------------------

TEST(Fixtures, SelfTestPasses) {
  std::ostringstream out;
  const int failures = RunSelfTest(FixturesDir(), AnalysisOptions{}, out);
  EXPECT_EQ(failures, 0) << out.str();
}

TEST(Fixtures, RuleFilterRunsOnlyThoseRulesFixtures) {
  std::ostringstream out;
  const int failures =
      RunSelfTest(FixturesDir(), AnalysisOptions{}, out, {"GL005"});
  EXPECT_EQ(failures, 0) << out.str();
  EXPECT_NE(out.str().find("PASS gl005_pos_raw_resource_equality.cc"),
            std::string::npos) << out.str();
  EXPECT_NE(out.str().find("PASS gl005_neg_epsilon_helper.cc"),
            std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("gl001_"), std::string::npos) << out.str();
}

TEST(Fixtures, PositivesFireExactlyTheirRules) {
  const std::vector<std::pair<std::string, std::set<std::string>>> cases = {
      // The determinism-contract patterns, one fixture per case.
      {"gl001_pos_unordered_range_for.cc", {"GL001"}},
      {"gl001_pos_unordered_via_function.cc", {"GL001"}},
      {"gl001_pos_unordered_vector_element.cc", {"GL001"}},
      {"gl001_pos_unordered_iterator_loop.cc", {"GL001"}},
      {"gl002_pos_injected_rand.cc", {"GL002"}},
      {"gl002_pos_injected_mt19937.cc", {"GL002"}},
      {"gl003_pos_time_seeded_rng.cc", {"GL003"}},
      {"gl003_pos_chrono_now.cc", {"GL003", "GL009"}},
      {"gl004_pos_pointer_keyed_map.cc", {"GL004"}},
      {"gl005_pos_raw_resource_equality.cc", {"GL005"}},
      {"gl006_pos_raw_thread.cc", {"GL006"}},
      {"gl006_pos_detached_thread.cc", {"GL006"}},
      {"gl007_pos_mutable_global.cc", {"GL007"}},
      {"gl007_pos_mutable_global_uninitialized.cc", {"GL007"}},
      {"gl007_pos_inline_namespace_global.cc", {"GL007"}},
      {"gl008_pos_unguarded_mutex.cc", {"GL008"}},
      {"gl009_pos_raw_clock_alias.cc", {"GL009"}},
      {"gl010_pos.cc", {"GL010"}},
      {"gl011_pos.cc", {"GL011"}},
      {"gl012_pos.cc", {"GL012"}},
      {"gl014_pos.cc", {"GL014"}},
      {"gl015_pos.cc", {"GL015"}},
      {"gl016_pos.cc", {"GL016"}},
      {"gl016_pos_unordered_loop_element.cc", {"GL001", "GL016"}},
      {"gl017_pos.cc", {"GL017"}},
      {"gl018_pos.cc", {"GL018"}},
      // gl019's hot loop allocates, so the flow-insensitive GL010 fires on
      // the same site the loop-carried rule refines.
      {"gl019_pos.cc", {"GL010", "GL019"}},
      {"gl020_pos.cc", {"GL020"}},
      {"gl021_pos.cc", {"GL021"}},
  };
  for (const auto& [file, rules] : cases) {
    const std::set<std::string> fired =
        FiredRules(FixturesDir() + "/" + file);
    EXPECT_EQ(fired, rules) << file;
  }
}

TEST(Fixtures, NegativesAreClean) {
  for (const char* file :
       {"gl001_neg_unordered_membership.cc",
        "gl001_neg_unordered_sorted_snapshot.cc",
        "gl002_neg_violation_in_comment.cc", "gl005_neg_epsilon_helper.cc",
        "gl006_neg_thread_pool_use.cc", "gl007_neg_const_globals.cc",
        "gl007_neg_namespace_decls.cc", "gl007_neg_default_arg_brace.cc",
        "gl008_neg_guarded_mutex.cc", "gl009_neg_obs_timer.cc",
        "gl010_neg.cc", "gl011_neg.cc", "gl012_neg.cc", "gl014_neg.cc",
        "gl015_neg.cc", "gl016_neg.cc", "gl016_neg_ordered_loop_element.cc",
        "gl017_neg.cc", "gl018_neg.cc",
        "gl019_neg.cc", "gl020_neg.cc", "gl021_neg.cc"}) {
    EXPECT_TRUE(FiredRules(FixturesDir() + std::string("/") + file).empty())
        << file;
  }
}

// --- cross-file reachability (GL010) ---------------------------------------

TEST(HotPath, AllocationReachableAcrossFilesIsFound) {
  // Root in one file, allocation two hops away in another.
  const std::string a =
      "namespace x {\n"
      "void Helper(int n);\n"
      "int Bisect(int n) { Helper(n); return n; }\n"
      "}  // namespace x\n";
  const std::string b =
      "#include <vector>\n"
      "namespace x {\n"
      "void Leaf(int n) { std::vector<int> v(n, 0); (void)v; }\n"
      "void Helper(int n) { Leaf(n); }\n"
      "}  // namespace x\n";
  const std::vector<FileFacts> facts = {ExtractFacts("a.cc", a),
                                        ExtractFacts("b.cc", b)};
  const std::vector<Finding> findings = Analyze(facts, AnalysisOptions{});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL010");
  EXPECT_EQ(findings[0].path, "b.cc");
  // The message carries the whole chain from the root.
  EXPECT_NE(findings[0].message.find("Bisect -> Helper -> Leaf"),
            std::string::npos)
      << findings[0].message;
}

TEST(HotPath, FileLocalDefinitionShadowsForeignNameCollision) {
  // a.cc's root calls its own file-local Step(); c.cc has an unrelated
  // allocating Step(). Scoped resolution must not fuse the two graphs.
  const std::string a =
      "namespace x {\n"
      "void Step(int) {}\n"
      "int Bisect(int n) { Step(n); return n; }\n"
      "}  // namespace x\n";
  const std::string c =
      "#include <vector>\n"
      "namespace y {\n"
      "void Step(int n) { std::vector<int> v(n, 1); (void)v; }\n"
      "}  // namespace y\n";
  const std::vector<FileFacts> facts = {ExtractFacts("a.cc", a),
                                        ExtractFacts("c.cc", c)};
  EXPECT_TRUE(Analyze(facts, AnalysisOptions{}).empty());
}

TEST(HotPath, CustomRootSpecs) {
  const std::string src =
      "#include <vector>\n"
      "struct Engine {\n"
      "  void Run(int n) { std::vector<int> v(n, 0); (void)v; }\n"
      "};\n";
  AnalysisOptions opts;
  opts.hot_roots = {"Engine::"};
  const std::vector<FileFacts> facts = {ExtractFacts("e.cc", src)};
  const std::vector<Finding> findings = Analyze(facts, opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL010");
}

// --- baseline --------------------------------------------------------------

TEST(Baseline, SuppressesByFingerprintAndReportsStale) {
  const std::string fixture = FixturesDir() + "/gl010_pos.cc";
  const std::vector<FileFacts> facts = {
      ExtractFacts(fixture, ReadFileOrDie(fixture))};
  const std::vector<Finding> all = Analyze(facts, AnalysisOptions{});
  ASSERT_GT(all.size(), 1u);

  // Baseline the first finding by its (rule, line text) fingerprint with a
  // bare-filename path — the finding carries the full fixture path, so this
  // exercises the '/'-boundary suffix match and the absence of line numbers
  // from the key. The second entry matches nothing in a file this run did
  // not scan: listed, not stale.
  TempDir tmp;
  const std::string bl = tmp.Path("baseline.txt");
  WriteFileOrDie(bl, "# justification\n" + all[0].rule_id + "|gl010_pos.cc|" +
                         all[0].line_text +
                         "\nGL010|some/other/file.cc|int* p = new int;\n");
  Baseline baseline;
  std::string err;
  ASSERT_TRUE(LoadBaseline(bl, &baseline, &err)) << err;
  ASSERT_EQ(baseline.entries.size(), 2u);

  const BaselineResult r = ApplyBaseline(all, baseline, {fixture});
  EXPECT_EQ(r.suppressed, 1);
  EXPECT_EQ(r.fresh.size(), all.size() - 1);
  EXPECT_TRUE(r.stale.empty());
  ASSERT_EQ(r.elsewhere.size(), 1u);
  EXPECT_EQ(r.elsewhere[0].path, "some/other/file.cc");
}

TEST(Baseline, BlessesADeterminismPatternFinding) {
  // The baseline is the one suppression mechanism, GL001–GL009 included:
  // a justified entry blesses a sanctioned raw thread.
  const std::string fixture = FixturesDir() + "/gl006_pos_raw_thread.cc";
  const std::vector<FileFacts> facts = {
      ExtractFacts(fixture, ReadFileOrDie(fixture))};
  const std::vector<Finding> all = Analyze(facts, AnalysisOptions{});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].rule_id, "GL006");
  EXPECT_EQ(all[0].line_text, "std::thread worker([] {});");

  TempDir tmp;
  const std::string bl = tmp.Path("baseline.txt");
  WriteFileOrDie(bl,
                 "# Test-only harness thread.\n"
                 "GL006|gl006_pos_raw_thread.cc|std::thread worker([] {});\n");
  Baseline baseline;
  std::string err;
  ASSERT_TRUE(LoadBaseline(bl, &baseline, &err)) << err;
  const BaselineResult r = ApplyBaseline(all, baseline, {fixture});
  EXPECT_EQ(r.suppressed, 1);
  EXPECT_TRUE(r.fresh.empty());
  EXPECT_TRUE(r.stale.empty());
}

#ifndef GL_ANALYZE_BIN
#error "tests/CMakeLists.txt must define GL_ANALYZE_BIN"
#endif

// Exit status of `gl_analyze --quiet --baseline=<bl> <file>`.
int RunAnalyzer(const std::string& baseline, const std::string& file) {
  const std::string cmd = std::string("'") + GL_ANALYZE_BIN +
                          "' --quiet --baseline='" + baseline + "' '" + file +
                          "' > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Baseline, StaleEntryForAScannedFileFailsTheRun) {
  // A dead suppression: the entry blesses an RNG use that is gone from the
  // scanned file. It fails the run; the same entry with its finding present
  // blesses it and the run passes.
  TempDir tmp;
  const std::string src = tmp.Path("roll.cc");
  const std::string bl = tmp.Path("baseline.txt");
  WriteFileOrDie(bl,
                 "# Legacy dice roll, kept for the replay comparison.\n"
                 "GL002|roll.cc|return rand() % 6;\n");
  WriteFileOrDie(src, "int Roll() {\n  return 4;\n}\n");
  EXPECT_EQ(RunAnalyzer(bl, src), 1);
  WriteFileOrDie(src, "int Roll() {\n  return rand() % 6;\n}\n");
  EXPECT_EQ(RunAnalyzer(bl, src), 0);
  // An entry for a file outside the scanned paths is only listed.
  const std::string other = tmp.Path("other.cc");
  WriteFileOrDie(other, "int Four() { return 4; }\n");
  EXPECT_EQ(RunAnalyzer(bl, other), 0);
}

TEST(Baseline, MalformedLinesAreRejected) {
  TempDir tmp;
  const std::string bl = tmp.Path("bad.txt");
  WriteFileOrDie(bl, "GL010 no pipes here\n");
  Baseline baseline;
  std::string err;
  EXPECT_FALSE(LoadBaseline(bl, &baseline, &err));
  EXPECT_NE(err.find("malformed"), std::string::npos);
}

// --- SARIF -----------------------------------------------------------------

TEST(Sarif, CarriesRuleIdsAndLocations) {
  const std::string fixture = FixturesDir() + "/gl011_pos.cc";
  const std::vector<FileFacts> facts = {
      ExtractFacts(fixture, ReadFileOrDie(fixture))};
  const std::string sarif = ToSarif(Analyze(facts, AnalysisOptions{}));
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"GL011\""), std::string::npos);
  EXPECT_NE(sarif.find("gl011_pos.cc"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":"), std::string::npos);
  // Every rule is declared in the driver even when fewer fire.
  for (const RuleInfo& r : Rules()) {
    EXPECT_NE(sarif.find(r.id), std::string::npos);
  }
}

// --- facts serialization round-trip ----------------------------------------

TEST(Facts, SerializationRoundTrips) {
  for (const char* name :
       {"/gl010_pos.cc", "/gl001_pos_unordered_via_function.cc",
        "/gl004_pos_pointer_keyed_map.cc", "/gl007_pos_mutable_global.cc",
        "/gl008_pos_unguarded_mutex.cc"}) {
    const std::string fixture = FixturesDir() + name;
    const FileFacts facts = ExtractFacts(fixture, ReadFileOrDie(fixture));
    std::string blob;
    SerializeFacts(facts, &blob);
    FileFacts back;
    ASSERT_TRUE(DeserializeFacts(blob, &back)) << name;
    std::string blob2;
    SerializeFacts(back, &blob2);
    EXPECT_EQ(blob, blob2) << name;
    EXPECT_EQ(back.functions.size(), facts.functions.size()) << name;
    EXPECT_EQ(back.allocs.size(), facts.allocs.size()) << name;
    EXPECT_EQ(back.calls.size(), facts.calls.size()) << name;
    EXPECT_EQ(back.pattern_hits.size(), facts.pattern_hits.size()) << name;
    EXPECT_EQ(back.containers.size(), facts.containers.size()) << name;
    EXPECT_EQ(back.loops.size(), facts.loops.size()) << name;
  }
}

TEST(Facts, DeserializeRejectsGarbage) {
  FileFacts f;
  EXPECT_FALSE(DeserializeFacts("Z\tnot\ta\trecord\n", &f));
  EXPECT_FALSE(DeserializeFacts("F\tonly_two\tcols\n", &f));
  // v4 blobs: the allow()-comment record and the old taint-seed record are
  // gone, so a v4 blob that slipped past the header check is rejected and
  // re-extracted, never misread.
  EXPECT_FALSE(DeserializeFacts(
      "P\tx.cc\nS\t3\tint r = rand();\tadhoc-rngkt\n", &f));
  EXPECT_FALSE(DeserializeFacts(
      "P\tx.cc\nD\t0\tv:k\tunordered-iter\t5\tfor (auto k : m)\n", &f));
}

// --- incremental cache -----------------------------------------------------

TEST(Cache, WarmRunReusesFactsAndEditInvalidates) {
  TempDir tmp;
  const std::string src_path = tmp.Path("unit.cc");
  const std::string cache = tmp.Path("cache");
  WriteFileOrDie(src_path,
                 "#include <vector>\n"
                 "int Bisect(int n) { std::vector<int> v(n, 0); return n; }\n");

  CacheStats cold;
  std::string err;
  std::vector<FileFacts> facts =
      LoadFacts({src_path}, cache, &cold, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(cold.files_lexed, 1);
  EXPECT_EQ(cold.files_cached, 0);
  EXPECT_EQ(Analyze(facts, AnalysisOptions{}).size(), 1u);

  CacheStats warm;
  facts = LoadFacts({src_path}, cache, &warm, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(warm.files_lexed, 0);
  EXPECT_EQ(warm.files_cached, 1);
  EXPECT_EQ(Analyze(facts, AnalysisOptions{}).size(), 1u);

  // Touch without change: rewriting identical bytes bumps the mtime, but
  // the content hash rescues the cache entry.
  WriteFileOrDie(src_path,
                 "#include <vector>\n"
                 "int Bisect(int n) { std::vector<int> v(n, 0); return n; }\n");
  CacheStats touched;
  facts = LoadFacts({src_path}, cache, &touched, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(touched.files_lexed, 0);
  EXPECT_EQ(touched.files_cached, 1);

  // The same cache under the previous format's header (v5 facts lacked
  // structured bindings and member roots): every entry is re-extracted,
  // none misread.
  std::string bytes = ReadFileOrDie(cache);
  ASSERT_TRUE(bytes.starts_with("glcache v6 "));
  bytes.replace(0, 11, "glcache v5 ");
  WriteFileOrDie(cache, bytes);
  CacheStats v5;
  facts = LoadFacts({src_path}, cache, &v5, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(v5.files_lexed, 1);
  EXPECT_EQ(v5.files_cached, 0);
  EXPECT_EQ(Analyze(facts, AnalysisOptions{}).size(), 1u);

  // Content edit: the hash changes, the entry is re-extracted, and the new
  // facts reflect the fix.
  WriteFileOrDie(src_path,
                 "#include <vector>\n"
                 "int Bisect(int n) { std::vector<int> w; (void)w; return n; }\n");
  CacheStats edited;
  facts = LoadFacts({src_path}, cache, &edited, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(edited.files_lexed, 1);
  EXPECT_TRUE(Analyze(facts, AnalysisOptions{}).empty());
}

TEST(Cache, MissingFileIsReportedNotFatal) {
  TempDir tmp;
  CacheStats stats;
  std::string err;
  const std::vector<FileFacts> facts =
      LoadFacts({tmp.Path("nope.cc")}, "", &stats, &err);
  EXPECT_TRUE(facts.empty());
  EXPECT_NE(err.find("nope.cc"), std::string::npos);
}

// --- GL014: units-of-measure dataflow --------------------------------------

std::vector<Finding> AnalyzeSources(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<FileFacts> facts;
  facts.reserve(sources.size());
  for (const auto& [path, src] : sources) {
    facts.push_back(ExtractFacts(path, src));
  }
  return Analyze(facts, AnalysisOptions{});
}

TEST(Units, CrossFileCallBindingMixesDimensions) {
  const std::string callee =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double Headroom(double budget_w GL_UNITS(watts)) {\n"
      "  return 300.0 - budget_w;\n"
      "}\n"
      "}  // namespace x\n";
  const std::string caller =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double Headroom(double budget_w);\n"
      "double Slack() {\n"
      "  double window GL_UNITS(ms) = 5000.0;\n"
      "  return Headroom(window);\n"
      "}\n"
      "}  // namespace x\n";
  const std::vector<Finding> findings =
      AnalyzeSources({{"callee.cc", callee}, {"caller.cc", caller}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL014");
  EXPECT_EQ(findings[0].path, "caller.cc");
  EXPECT_NE(findings[0].message.find("declared watts"), std::string::npos);
}

TEST(Units, ConsistentArithmeticIsClean) {
  const std::string src =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double Total(double idle_w GL_UNITS(watts)) {\n"
      "  double dynamic_w GL_UNITS(watts) = 40.0;\n"
      "  return idle_w + dynamic_w;\n"
      "}\n"
      "}  // namespace x\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

TEST(Units, MixedDimensionBinopFires) {
  const std::string src =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double Bad(double idle_w GL_UNITS(watts),\n"
      "           double epoch_ms GL_UNITS(ms)) {\n"
      "  return idle_w + epoch_ms;\n"
      "}\n"
      "}  // namespace x\n";
  const std::vector<Finding> findings = AnalyzeSources({{"s.cc", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL014");
  EXPECT_NE(findings[0].message.find("mix dimensions"), std::string::npos);
}

TEST(Units, AnyParamAbsorbsAllDimensionsWithoutConflict) {
  // The GL_UNITS(any) helper takes watts in one caller and ms in another;
  // `any` erases the dimension instead of joining to conflict, so neither
  // the bindings nor downstream uses of the return value fire.
  const std::string src =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double FiniteOrZero(double v GL_UNITS(any)) {\n"
      "  return v < 0.0 ? 0.0 : v;\n"
      "}\n"
      "double CheckW(double idle_w GL_UNITS(watts)) {\n"
      "  return FiniteOrZero(idle_w);\n"
      "}\n"
      "double CheckT(double epoch_ms GL_UNITS(ms)) {\n"
      "  return FiniteOrZero(epoch_ms);\n"
      "}\n"
      "}  // namespace x\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

// --- GL015: lock-order cycles ----------------------------------------------

TEST(LockOrder, InterproceduralInversionIsACycle) {
  // Drain holds mu_ and calls a helper that takes nu_; Refill holds nu_ and
  // calls a helper that takes mu_. Neither function shows both locks
  // directly — the cycle only exists after folding locksets over the call
  // graph.
  const std::string src =
      "namespace x {\n"
      "class Pool {\n"
      " public:\n"
      "  void Drain() {\n"
      "    MutexLock l(&mu_);\n"
      "    TakeNu();\n"
      "  }\n"
      "  void Refill() {\n"
      "    MutexLock l(&nu_);\n"
      "    TakeMu();\n"
      "  }\n"
      " private:\n"
      "  void TakeNu() { MutexLock l(&nu_); }\n"
      "  void TakeMu() { MutexLock l(&mu_); }\n"
      "  Mutex mu_;\n"
      "  Mutex nu_;\n"
      "  int n_ GL_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace x\n";
  const std::vector<Finding> findings = AnalyzeSources({{"s.cc", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL015");
  EXPECT_NE(findings[0].message.find("Pool::mu_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Pool::nu_"), std::string::npos);
  // Both chains of evidence are part of the message.
  EXPECT_NE(findings[0].message.find(" vs ["), std::string::npos);
}

TEST(LockOrder, ConsistentOrderIsClean) {
  const std::string src =
      "namespace x {\n"
      "class Pool {\n"
      " public:\n"
      "  void Drain() {\n"
      "    MutexLock a(&mu_);\n"
      "    MutexLock b(&nu_);\n"
      "  }\n"
      "  void Refill() {\n"
      "    MutexLock a(&mu_);\n"
      "    MutexLock b(&nu_);\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  Mutex nu_;\n"
      "  int n_ GL_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace x\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

// --- GL016: determinism taint ----------------------------------------------

TEST(Taint, ClockThroughCrossFileHelperReachesHash) {
  const std::string helper =
      "namespace x {\n"
      "unsigned long long TickStamp() {\n"
      "  const unsigned long long t = obs::MonotonicMicros();\n"
      "  return t;\n"
      "}\n"
      "}  // namespace x\n";
  const std::string snapshot =
      "namespace x {\n"
      "unsigned long long TickStamp();\n"
      "void Snapshot(StateHash& h) {\n"
      "  const unsigned long long stamp = TickStamp();\n"
      "  h.MixU64(stamp);\n"
      "}\n"
      "}  // namespace x\n";
  const std::vector<Finding> findings =
      AnalyzeSources({{"helper.cc", helper}, {"snapshot.cc", snapshot}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL016");
  EXPECT_EQ(findings[0].path, "snapshot.cc");
  EXPECT_NE(findings[0].message.find("MixU64"), std::string::npos);
}

TEST(Taint, DeterministicDataAtSinkIsClean) {
  const std::string src =
      "#include <vector>\n"
      "namespace x {\n"
      "void Snapshot(StateHash& h, const std::vector<double>& loads) {\n"
      "  const unsigned long long placed = loads.size();\n"
      "  h.MixU64(placed);\n"
      "}\n"
      "}  // namespace x\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

// --- --jobs=N parallel extraction ------------------------------------------

TEST(Jobs, ParallelExtractionIsByteIdentical) {
  TempDir tmp;
  std::vector<std::string> paths;
  for (int i = 0; i < 8; ++i) {
    const std::string idx = std::to_string(i);
    const std::string p = tmp.Path("f" + idx + ".cc");
    std::string src = "#define GL_UNITS(d)\n";
    src += "namespace x { double V" + idx;
    src += "(double w GL_UNITS(watts)) { return w + " + idx + ".0; } }\n";
    WriteFileOrDie(p, src);
    paths.push_back(p);
  }
  const std::string cache1 = tmp.Path("cache1");
  const std::string cache8 = tmp.Path("cache8");
  CacheStats s1, s8;
  std::string err1, err8;
  const std::vector<FileFacts> f1 = LoadFacts(paths, cache1, &s1, &err1, 1);
  const std::vector<FileFacts> f8 = LoadFacts(paths, cache8, &s8, &err8, 8);
  EXPECT_TRUE(err1.empty()) << err1;
  EXPECT_TRUE(err8.empty()) << err8;
  ASSERT_EQ(f1.size(), f8.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    std::string b1, b8;
    SerializeFacts(f1[i], &b1);
    SerializeFacts(f8[i], &b8);
    EXPECT_EQ(b1, b8) << paths[i];
  }
  EXPECT_EQ(ReadFileOrDie(cache1), ReadFileOrDie(cache8));
}

// --- facts round-trip of the dataflow records --------------------------------

TEST(Facts, DataflowRecordsRoundTrip) {
  for (const char* name :
       {"/gl014_pos.cc", "/gl015_pos.cc", "/gl016_pos.cc"}) {
    const std::string fixture = FixturesDir() + name;
    const FileFacts facts = ExtractFacts(fixture, ReadFileOrDie(fixture));
    std::string blob;
    SerializeFacts(facts, &blob);
    FileFacts back;
    ASSERT_TRUE(DeserializeFacts(blob, &back)) << name;
    std::string blob2;
    SerializeFacts(back, &blob2);
    EXPECT_EQ(blob, blob2) << name;
    EXPECT_EQ(back.unit_decls.size(), facts.unit_decls.size()) << name;
    EXPECT_EQ(back.binops.size(), facts.binops.size()) << name;
    EXPECT_EQ(back.call_args.size(), facts.call_args.size()) << name;
    EXPECT_EQ(back.lock_acquires.size(), facts.lock_acquires.size()) << name;
  }
  // The new record kinds are actually present in the corpus.
  const FileFacts units = ExtractFacts(
      FixturesDir() + "/gl014_pos.cc",
      ReadFileOrDie(FixturesDir() + "/gl014_pos.cc"));
  EXPECT_FALSE(units.unit_decls.empty());
  EXPECT_FALSE(units.binops.empty());
  const FileFacts locks = ExtractFacts(
      FixturesDir() + "/gl015_pos.cc",
      ReadFileOrDie(FixturesDir() + "/gl015_pos.cc"));
  EXPECT_FALSE(locks.lock_acquires.empty());
}

// --- facts round-trip of the CFG records -------------------------------------

TEST(Facts, CfgRecordsRoundTrip) {
  for (const char* name : {"/gl017_pos.cc", "/gl018_pos.cc", "/gl019_pos.cc",
                           "/gl020_pos.cc", "/gl021_pos.cc"}) {
    const std::string fixture = FixturesDir() + name;
    const FileFacts facts = ExtractFacts(fixture, ReadFileOrDie(fixture));
    EXPECT_FALSE(facts.cfgs.empty()) << name;
    std::string blob;
    SerializeFacts(facts, &blob);
    FileFacts back;
    ASSERT_TRUE(DeserializeFacts(blob, &back)) << name;
    std::string blob2;
    SerializeFacts(back, &blob2);
    EXPECT_EQ(blob, blob2) << name;
    ASSERT_EQ(back.cfgs.size(), facts.cfgs.size()) << name;
    for (std::size_t i = 0; i < facts.cfgs.size(); ++i) {
      ASSERT_EQ(back.cfgs[i].blocks.size(), facts.cfgs[i].blocks.size());
      for (std::size_t b = 0; b < facts.cfgs[i].blocks.size(); ++b) {
        EXPECT_EQ(back.cfgs[i].blocks[b].succ, facts.cfgs[i].blocks[b].succ);
        EXPECT_EQ(back.cfgs[i].blocks[b].events.size(),
                  facts.cfgs[i].blocks[b].events.size());
      }
    }
  }
}

// --- path-sensitive rules on inline sources ----------------------------------

TEST(Cfg, LockLeakOnOnePathOnly) {
  const std::string src =
      "struct Mutex { void Lock(); void Unlock(); };\n"
      "class C {\n"
      " public:\n"
      "  bool Step(bool ok) {\n"
      "    mu_.Lock();\n"
      "    if (!ok) return false;\n"  // leaks mu_
      "    mu_.Unlock();\n"
      "    return true;\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int n_ GL_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const std::vector<Finding> findings = AnalyzeSources({{"s.cc", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL017");
  EXPECT_NE(findings[0].message.find("mu_"), std::string::npos);
}

TEST(Cfg, UnlockFirstLockIsCallerHeldContract) {
  // The thread_pool drop-and-retake shape: the function's first manual
  // event is an Unlock, so it entered holding the lock and exits the same
  // way by contract — even when the GL_REQUIRES lives only on a header
  // declaration the extractor never sees.
  const std::string src =
      "struct Mutex { void Lock(); void Unlock(); };\n"
      "void Backoff();\n"
      "class C {\n"
      " public:\n"
      "  void Wait() {\n"
      "    mu_.Unlock();\n"
      "    Backoff();\n"
      "    mu_.Lock();\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int n_ GL_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

TEST(Cfg, UseAfterClearOnSomePathFires) {
  const std::string src =
      "#include <vector>\n"
      "struct PartitionScratch { std::vector<int> gains; void Clear(); };\n"
      "int Peek(PartitionScratch& s, bool reset) {\n"
      "  int& g = s.gains[0];\n"
      "  if (reset) s.Clear();\n"
      "  return g;\n"  // dangles when reset
      "}\n";
  const std::vector<Finding> findings = AnalyzeSources({{"s.cc", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL018");
}

TEST(Cfg, RebindAfterClearIsClean) {
  const std::string src =
      "#include <vector>\n"
      "struct PartitionScratch { std::vector<int> gains; void Clear(); };\n"
      "int Peek(PartitionScratch& s) {\n"
      "  int& g = s.gains[0];\n"
      "  (void)g;\n"
      "  s.Clear();\n"
      "  int& h = s.gains[0];\n"  // fresh reference after the Clear
      "  return h;\n"
      "}\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

TEST(Cfg, LoopAllocInsideHotLoopFires) {
  const std::string src =
      "#include <vector>\n"
      "int Bisect(int n) {\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    std::vector<int> tmp(8, 0);\n"  // allocates every iteration
      "    acc += tmp[0] + i;\n"
      "  }\n"
      "  return acc;\n"
      "}\n";
  std::set<std::string> fired;
  for (const Finding& f : AnalyzeSources({{"s.cc", src}})) {
    fired.insert(f.rule_id);
  }
  EXPECT_TRUE(fired.count("GL019")) << "loop-carried allocation not flagged";
}

TEST(Cfg, NarrowingNeedsADominatingCheck) {
  const std::string unchecked =
      "#include <cstdint>\n"
      "using VertexIndex = std::int32_t;\n"
      "VertexIndex Id(std::size_t p) {\n"
      "  return static_cast<VertexIndex>(p);\n"
      "}\n";
  const std::vector<Finding> findings =
      AnalyzeSources({{"s.cc", unchecked}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL020");

  const std::string checked =
      "#include <cstdint>\n"
      "using VertexIndex = std::int32_t;\n"
      "VertexIndex Id(std::size_t p, std::size_t hi) {\n"
      "  GOLDILOCKS_CHECK(p < hi);\n"
      "  return static_cast<VertexIndex>(p);\n"
      "}\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", checked}}).empty());
}

TEST(Cfg, CheckOnOneBranchDoesNotDominateTheOther) {
  // The check sits in the taken branch; the fall-through path still narrows
  // unchecked, and the must-analysis join has to catch that.
  const std::string src =
      "#include <cstdint>\n"
      "using VertexIndex = std::int32_t;\n"
      "VertexIndex Id(std::size_t p, bool fast) {\n"
      "  if (fast) {\n"
      "    GOLDILOCKS_CHECK(p < 100);\n"
      "  }\n"
      "  return static_cast<VertexIndex>(p);\n"
      "}\n";
  const std::vector<Finding> findings = AnalyzeSources({{"s.cc", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL020");
}

TEST(Cfg, DivergentGuardOverHashWriteFires) {
  const std::string src =
      "#include <cstdint>\n"
      "struct Pool { template <typename F> void ParallelFor(int, int, F); };\n"
      "std::uint64_t MixU64(std::uint64_t h, std::uint64_t v);\n"
      "std::int64_t ElapsedMs();\n"
      "void Run(Pool& pool, std::uint64_t& hash, int n) {\n"
      "  pool.ParallelFor(0, n, [&](int i) {\n"
      "    if (ElapsedMs() > 5) {\n"
      "      hash = MixU64(hash, i);\n"
      "    }\n"
      "  });\n"
      "}\n";
  const std::vector<Finding> findings = AnalyzeSources({{"s.cc", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL021");

  // The same write with a deterministic guard is fine.
  const std::string det =
      "#include <cstdint>\n"
      "struct Pool { template <typename F> void ParallelFor(int, int, F); };\n"
      "std::uint64_t MixU64(std::uint64_t h, std::uint64_t v);\n"
      "void Run(Pool& pool, std::uint64_t& hash, int n) {\n"
      "  pool.ParallelFor(0, n, [&](int i) {\n"
      "    if (i % 2 == 0) {\n"
      "      hash = MixU64(hash, i);\n"
      "    }\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", det}}).empty());
}

// --- --rule filter ------------------------------------------------------------

TEST(RuleFilter, ParsesListsAndRejectsUnknownIds) {
  std::set<std::string> ids;
  std::string err;
  ASSERT_TRUE(ParseRuleFilter("GL020", &ids, &err)) << err;
  EXPECT_EQ(ids, (std::set<std::string>{"GL020"}));

  ids.clear();
  ASSERT_TRUE(ParseRuleFilter("GL017,GL021", &ids, &err)) << err;
  EXPECT_EQ(ids, (std::set<std::string>{"GL017", "GL021"}));

  ids.clear();
  EXPECT_FALSE(ParseRuleFilter("GL999", &ids, &err));
  EXPECT_NE(err.find("GL999"), std::string::npos);
  EXPECT_FALSE(ParseRuleFilter("", &ids, &err));
}

// --- cache invalidation on config change --------------------------------------

TEST(Cache, ConfigHashChangeInvalidatesWholeCache) {
  TempDir tmp;
  const std::string src_path = tmp.Path("unit.cc");
  const std::string cache = tmp.Path("cache");
  WriteFileOrDie(src_path,
                 "#include <vector>\n"
                 "int Bisect(int n) { std::vector<int> v(n, 0); return n; }\n");

  CacheStats cold;
  std::string err;
  (void)LoadFacts({src_path}, cache, &cold, &err, 1, /*config_hash=*/7);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(cold.files_lexed, 1);

  // Same config: warm.
  CacheStats warm;
  (void)LoadFacts({src_path}, cache, &warm, &err, 1, /*config_hash=*/7);
  EXPECT_EQ(warm.files_cached, 1);
  EXPECT_EQ(warm.files_lexed, 0);

  // Different config (new baseline bytes, rule filter, flags...): the
  // whole cache is stale even though no source changed.
  CacheStats changed;
  (void)LoadFacts({src_path}, cache, &changed, &err, 1, /*config_hash=*/8);
  EXPECT_EQ(changed.files_cached, 0);
  EXPECT_EQ(changed.files_lexed, 1);

  // And the new config re-warms on the next run.
  CacheStats rewarm;
  (void)LoadFacts({src_path}, cache, &rewarm, &err, 1, /*config_hash=*/8);
  EXPECT_EQ(rewarm.files_cached, 1);
}

}  // namespace
}  // namespace gl::analyze
