#include "analyze/facts.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "analyze/cfg.h"

namespace gl::analyze {
namespace {

// Structural view: comments and preprocessor directives removed, but the
// original token (with its line) still reachable.
struct SView {
  std::vector<const Token*> toks;

  [[nodiscard]] std::size_t size() const { return toks.size(); }
  [[nodiscard]] const std::string& text(std::size_t i) const {
    return i < toks.size() ? toks[i]->text : kEmpty;
  }
  [[nodiscard]] TokKind kind(std::size_t i) const {
    return i < toks.size() ? toks[i]->kind : TokKind::kPunct;
  }
  [[nodiscard]] int line(std::size_t i) const {
    return i < toks.size() ? toks[i]->line : 0;
  }
  [[nodiscard]] bool is(std::size_t i, std::string_view s) const {
    return i < toks.size() && toks[i]->text == s;
  }
  [[nodiscard]] bool IsIdent(std::size_t i) const {
    return kind(i) == TokKind::kIdent;
  }

  static const std::string kEmpty;
};
const std::string SView::kEmpty;

// Index just past the token matching the opener at `i` ("{...}" or "(...)").
std::size_t MatchGroup(const SView& t, std::size_t i, std::string_view open,
                       std::string_view close) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (t.is(k, open)) ++depth;
    if (t.is(k, close) && --depth == 0) return k + 1;
  }
  return t.size();
}

// If t[i] opens a template argument list, returns the index just past its
// closing '>'; otherwise returns i. Heuristic: bails (no template) when a
// ';' or brace interrupts, or after 400 tokens.
std::size_t SkipTemplateArgs(const SView& t, std::size_t i) {
  if (!t.is(i, "<")) return i;
  int depth = 0;
  for (std::size_t k = i; k < t.size() && k < i + 400; ++k) {
    const std::string& s = t.text(k);
    if (s == "<") ++depth;
    else if (s == ">") --depth;
    else if (s == ">>") depth -= 2;
    else if (s == "(") { k = MatchGroup(t, k, "(", ")") - 1; continue; }
    else if (s == ";" || s == "{" || s == "}") return i;
    else if (s == "&&" || s == "||" || s == "=" || s == "==" || s == "+" ||
             s == "-") {
      return i;  // expression operators never appear in template args here
    }
    if (depth <= 0) return k + 1;
  }
  return i;
}

const std::unordered_set<std::string_view> kOwningContainers = {
    "vector", "deque", "list", "string", "basic_string", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "queue", "stack",
    "priority_queue"};

const std::unordered_set<std::string_view> kAllocCalls = {
    "make_unique", "make_shared", "malloc", "calloc", "realloc", "strdup",
    "aligned_alloc"};

const std::unordered_set<std::string_view> kGrowthCalls = {
    "push_back", "emplace_back", "emplace", "insert", "append", "push_front",
    "resize", "reserve", "assign"};

const std::unordered_set<std::string_view> kMutexTypes = {
    "Mutex", "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex"};

const std::unordered_set<std::string_view> kCondVarTypes = {
    "CondVar", "condition_variable", "condition_variable_any"};

const std::unordered_set<std::string_view> kBodyIntroducers = {
    "const", "noexcept", "override", "final", "mutable", "try"};

// Int-family type names: locals declared with these default to the "count"
// dimension, so loop counters and sizes never pollute the units lattice.
const std::unordered_set<std::string_view> kIntTypes = {
    "int", "unsigned", "long", "short", "size_t", "ssize_t", "ptrdiff_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t"};

// Containers whose iteration order is nondeterministic (GL001/GL016).
const std::unordered_set<std::string_view> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

// Ordered associative containers: order-sensitive only when pointer-keyed
// (GL004), because then the order follows allocation addresses.
const std::unordered_set<std::string_view> kOrderedAssoc = {
    "map", "set", "multimap", "multiset"};

// Sequence containers whose elements may be unordered containers
// (`std::vector<std::unordered_map<...>> votes`, iterated as votes[i]).
const std::unordered_set<std::string_view> kElementContainers = {
    "vector", "array", "deque"};

// Resource fields that accumulate floating-point error (GL005).
const std::unordered_set<std::string_view> kResourceFields = {
    "cpu", "mem_gb", "net_mbps"};

// Namespace-scope statements that declare something other than a variable.
const std::unordered_set<std::string_view> kNonVariableLeads = {
    "using", "typedef", "extern", "template", "static_assert", "friend",
    "class", "struct", "enum", "union", "namespace", "concept", "requires"};

// Nondeterminism sources (facts.h IsTaintSourceCallee). kTimer names the
// sanctioned obs/clock.h readers: taint sources, never pattern findings.
enum class Nondet { kRng, kTime, kRawClock, kTimer };

// How a nondeterminism-source identifier must appear to be a pattern hit.
enum class NondetShape {
  kAny,         // any use: type names and functions nobody else declares
  kCall,        // non-member call: srand(...), getpid()
  kNullary,     // non-member call with no (or a null) argument: rand()
  kStaticCall,  // qualified call: Clock::now()
  kTemplate,    // template-id: std::uniform_int_distribution<int>
};

struct NondetToken {
  std::string_view ident;
  Nondet kind;
  NondetShape shape;
};

constexpr NondetToken kNondetTokens[] = {
    {"rand", Nondet::kRng, NondetShape::kNullary},
    {"random", Nondet::kRng, NondetShape::kNullary},
    {"srand", Nondet::kRng, NondetShape::kCall},
    {"drand48", Nondet::kRng, NondetShape::kAny},
    {"lrand48", Nondet::kRng, NondetShape::kAny},
    {"mrand48", Nondet::kRng, NondetShape::kAny},
    {"random_device", Nondet::kRng, NondetShape::kAny},
    {"random_shuffle", Nondet::kRng, NondetShape::kAny},
    {"mt19937", Nondet::kRng, NondetShape::kAny},
    {"mt19937_64", Nondet::kRng, NondetShape::kAny},
    {"minstd_rand", Nondet::kRng, NondetShape::kAny},
    {"minstd_rand0", Nondet::kRng, NondetShape::kAny},
    {"default_random_engine", Nondet::kRng, NondetShape::kAny},
    {"ranlux24", Nondet::kRng, NondetShape::kAny},
    {"ranlux48", Nondet::kRng, NondetShape::kAny},
    {"time", Nondet::kTime, NondetShape::kNullary},
    {"clock", Nondet::kTime, NondetShape::kNullary},
    {"now", Nondet::kTime, NondetShape::kStaticCall},
    {"gettimeofday", Nondet::kTime, NondetShape::kAny},
    {"clock_gettime", Nondet::kTime, NondetShape::kAny},
    {"getpid", Nondet::kTime, NondetShape::kCall},
    {"steady_clock", Nondet::kRawClock, NondetShape::kAny},
    {"high_resolution_clock", Nondet::kRawClock, NondetShape::kAny},
    {"MonotonicMicros", Nondet::kTimer, NondetShape::kAny},
    {"ElapsedMs", Nondet::kTimer, NondetShape::kAny},
    {"ElapsedUs", Nondet::kTimer, NondetShape::kAny},
};

// Every std::*_distribution is an RNG adaptor with an unspecified bit-stream.
constexpr NondetToken kDistribution = {"", Nondet::kRng,
                                       NondetShape::kTemplate};

[[nodiscard]] const NondetToken* FindNondet(std::string_view ident) {
  for (const NondetToken& n : kNondetTokens) {
    if (n.ident == ident) return &n;
  }
  return ident.ends_with("_distribution") ? &kDistribution : nullptr;
}

// Operators that terminate an additive flow chunk; a chunk containing one
// of these is untrackable ("?:").
const std::unordered_set<std::string_view> kFlowBreakers = {
    "<<", ">>", "&", "|", "^", "%", "&&", "||"};

// ---------------------------------------------------------------------------
// Extraction context.
// ---------------------------------------------------------------------------
struct Extractor {
  const SView& t;
  const std::vector<std::string>& lines;  // 0-based source lines
  FileFacts& out;

  // Set by WalkStructure for the function whose body is being scanned.
  int body_end_line = 0;
  // Function index owning each structural token (signature and body), -1
  // outside function definitions. Filled by WalkStructure.
  std::vector<int> func_of;

  [[nodiscard]] std::string LineText(int line) const {
    if (line < 1 || line > static_cast<int>(lines.size())) return "";
    std::string s = lines[static_cast<std::size_t>(line - 1)];
    const auto b = s.find_first_not_of(" \t");
    const auto e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos) return "";
    return s.substr(b, e - b + 1);
  }

  // --- function bodies -----------------------------------------------------

  void ScanBody(int fidx, std::size_t begin, std::size_t end) {
    // Local owning containers (name -> declaration token index).
    std::unordered_set<std::string> locals;
    CollectLocalContainers(fidx, begin, end, &locals);

    for (std::size_t k = begin; k < end; ++k) {
      // Call sites + allocator calls + new expressions.
      if (t.IsIdent(k)) {
        const std::string& s = t.text(k);
        if (s == "new") {
          out.allocs.push_back({fidx, AllocKind::kNew, "new", t.line(k),
                                LineText(t.line(k))});
          continue;
        }
        if (s == "InducedSubgraph") {
          out.allocs.push_back({fidx, AllocKind::kInducedSubgraph,
                                "InducedSubgraph", t.line(k),
                                LineText(t.line(k))});
          continue;
        }
        const bool called = t.is(k + 1, "(") ||
                            (t.is(k + 1, "<") &&
                             SkipTemplateArgs(t, k + 1) != k + 1 &&
                             t.is(SkipTemplateArgs(t, k + 1), "("));
        if (kAllocCalls.count(s) && called) {
          out.allocs.push_back({fidx, AllocKind::kAllocCall, s, t.line(k),
                                LineText(t.line(k))});
          continue;
        }
        if (t.is(k + 1, "(") && !IsReservedWord(s) && !t.is(k - 1, "new") &&
            !s.starts_with("GL_")) {
          out.calls.push_back({fidx, s, t.line(k)});
        }
        // A TraceSpan declaration — `obs::TraceSpan span(...)` — tokenizes
        // as type + ident + "(", so the generic call pattern above records
        // the *variable* name. Record the type as the callee too: it is the
        // span-coverage fact GL022 keys on.
        if (s == "TraceSpan" && t.IsIdent(k + 1) && t.is(k + 2, "(")) {
          out.calls.push_back({fidx, s, t.line(k)});
        }
        // Growth call on a local container: NAME . grow ( ...
        if (t.is(k + 1, ".") && t.IsIdent(k + 2) && t.is(k + 3, "(") &&
            kGrowthCalls.count(t.text(k + 2)) && locals.count(s) &&
            !(k > begin && (t.is(k - 1, ".") || t.is(k - 1, "->") ||
                            t.is(k - 1, ")") || t.is(k - 1, "]")))) {
          out.allocs.push_back({fidx, AllocKind::kLocalGrowth,
                                s + "." + t.text(k + 2), t.line(k),
                                LineText(t.line(k))});
        }
      }
    }
    ScanParallelForFolds(fidx, begin, end);
    ScanStatements(fidx, begin, end);
  }

  // Declarations of local owning containers; records kLocalInit sites for
  // the ones constructed with contents.
  void CollectLocalContainers(int fidx, std::size_t begin, std::size_t end,
                              std::unordered_set<std::string>* locals) {
    std::size_t stmt_start = begin;
    for (std::size_t k = begin; k < end; ++k) {
      const std::string& s = t.text(k);
      if (s == ";" || s == "{" || s == "}") {
        stmt_start = k + 1;
        continue;
      }
      if (!t.IsIdent(k) || !kOwningContainers.count(s)) continue;
      // Reject member/qualified accesses (x.vector nonsense) but allow a
      // leading std::.
      if (t.is(k - 1, ".") || t.is(k - 1, "->")) continue;
      if (t.is(k - 1, "::") && !t.is(k - 2, "std")) continue;
      // `static` locals allocate once per process, not per call.
      bool is_static = false;
      for (std::size_t b = stmt_start; b < k; ++b) {
        if (t.is(b, "static")) is_static = true;
      }
      std::size_t p = SkipTemplateArgs(t, k + 1);
      if (p == k + 1 && t.is(k + 1, "<")) continue;  // unparsable args
      if (t.is(p, "&") || t.is(p, "*")) continue;    // reference / pointer
      if (!t.IsIdent(p) || IsReservedWord(t.text(p))) continue;
      const std::string name = t.text(p);
      const std::string& nxt = t.text(p + 1);
      bool init = false;
      if (nxt == "=") {
        init = true;
      } else if (nxt == "{") {
        init = !t.is(p + 2, "}");
      } else if (nxt == "(") {
        if (t.is(p + 2, ")")) continue;  // function declaration
        init = true;
      } else if (nxt != ";" && nxt != ",") {
        continue;
      }
      if (is_static) continue;
      locals->insert(name);
      if (init) {
        out.allocs.push_back({fidx, AllocKind::kLocalInit,
                              t.text(k) + " " + name, t.line(p),
                              LineText(t.line(p))});
      }
    }
  }

  // GL012: float accumulation into captured enclosing-scope locals inside
  // ParallelFor lambda bodies.
  void ScanParallelForFolds(int fidx, std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      if (!t.IsIdent(k) ||
          (t.text(k) != "ParallelFor" && t.text(k) != "ParallelForWithRng") ||
          !t.is(k + 1, "(")) {
        continue;
      }
      const std::size_t args_end = MatchGroup(t, k + 1, "(", ")");
      // Find the lambda: first '[' inside the argument list.
      std::size_t lb = k + 2;
      while (lb < args_end && !t.is(lb, "[")) ++lb;
      if (lb >= args_end) continue;
      std::size_t p = MatchGroup(t, lb, "[", "]");
      if (t.is(p, "(")) p = MatchGroup(t, p, "(", ")");
      while (p < args_end && !t.is(p, "{") && p < lb + 64) ++p;  // specifiers
      if (!t.is(p, "{")) continue;
      const std::size_t body_end = MatchGroup(t, p, "{", "}");

      // double/float locals declared outside vs inside the lambda body.
      std::unordered_set<std::string> outer;
      std::unordered_set<std::string> inner;
      for (std::size_t d = begin; d < end; ++d) {
        if (!t.IsIdent(d) ||
            (t.text(d) != "double" && t.text(d) != "float") ||
            !t.IsIdent(d + 1) || IsReservedWord(t.text(d + 1))) {
          continue;
        }
        const std::string& after = t.text(d + 2);
        if (after != "=" && after != ";" && after != "{" && after != ",") {
          continue;
        }
        (d > p && d < body_end ? inner : outer).insert(t.text(d + 1));
      }

      for (std::size_t q = p; q < body_end; ++q) {
        const std::string& op = t.text(q);
        if (op != "+=" && op != "-=" && op != "*=" && op != "/=") continue;
        if (!t.IsIdent(q - 1)) continue;  // excludes arr[i] += (prev is ']')
        if (t.is(q - 2, ".") || t.is(q - 2, "->") || t.is(q - 2, "]") ||
            t.is(q - 2, ")")) {
          continue;  // member/element target, not a captured scalar
        }
        const std::string& var = t.text(q - 1);
        if (outer.count(var) && !inner.count(var)) {
          const std::string fn =
              fidx >= 0 ? out.functions[static_cast<std::size_t>(fidx)].name
                        : std::string("?");
          out.float_folds.push_back(
              {var, fn, t.line(q), LineText(t.line(q))});
        }
      }
      k = args_end - 1;
    }
  }

  // --- dataflow term extraction (GL014/GL015/GL016) ------------------------
  //
  // Statements are the token runs between ';', '{' and '}'. Each statement
  // is scanned for declared dimensions, value flows, unit-relevant binary
  // operators, call arguments, returns, taint seeds and lock sites. Terms
  // use the encoding documented in facts.h.

  // Parses one operand starting at `k`, bounded by `hi`. Returns the term
  // and the index just past the operand ("" when `k` starts no operand).
  [[nodiscard]] std::pair<std::string, std::size_t> OperandFwd(
      std::size_t k, std::size_t hi) const {
    // Unary prefixes are dimension-transparent (or irrelevant to joins).
    while (k < hi && (t.is(k, "-") || t.is(k, "+") || t.is(k, "!") ||
                      t.is(k, "~") || t.is(k, "*") || t.is(k, "&"))) {
      ++k;
    }
    if (k >= hi) return {"", k};
    if (t.kind(k) == TokKind::kNumber) return {"k:", k + 1};
    if (t.kind(k) == TokKind::kString || t.kind(k) == TokKind::kChar) {
      return {"?:", k + 1};
    }
    if (t.is(k, "(")) {  // parenthesized subexpression: single-term or opaque
      const std::size_t close = MatchGroup(t, k, "(", ")");
      std::vector<std::string> inner;
      FlowTerms(k + 1, close - 1, &inner);
      return {inner.size() == 1 ? inner[0] : std::string("?:"), close};
    }
    if (!t.IsIdent(k)) return {"", k};
    const std::string& first = t.text(k);
    if (first == "static_cast" || first == "const_cast" ||
        first == "reinterpret_cast" || first == "dynamic_cast") {
      // Casts are dimension-transparent: recurse into the cast operand.
      std::size_t p = SkipTemplateArgs(t, k + 1);
      if (!t.is(p, "(")) return {"?:", p};
      const std::size_t close = MatchGroup(t, p, "(", ")");
      std::vector<std::string> inner;
      FlowTerms(p + 1, close - 1, &inner);
      return {inner.size() == 1 ? inner[0] : std::string("?:"), close};
    }
    if (first == "sizeof") {
      std::size_t p = k + 1;
      if (t.is(p, "(")) p = MatchGroup(t, p, "(", ")");
      return {"k:", p};
    }
    if (IsReservedWord(first) && first != "this") return {"", k};

    std::string cur = first;
    std::string root;  // the local a member chain starts from, if any
    bool member = false;
    std::size_t pos = k + 1;
    {  // template arguments on the head name (make_foo<T>(...))
      const std::size_t p = SkipTemplateArgs(t, pos);
      if (p != pos && t.is(p, "(")) pos = p;
    }
    while (pos < hi) {
      if (t.is(pos, "(")) {  // call: the term is the callee's return value
        const std::size_t close = MatchGroup(t, pos, "(", ")");
        if (t.is(close, ".") || t.is(close, "->")) {
          if (!t.IsIdent(close + 1)) return {"?:", close};
          cur = t.text(close + 1);
          member = true;
          root.clear();  // a call's result is its own value
          pos = close + 2;
          continue;
        }
        // The call site's line keys the term: two calls of the same callee
        // in one function must not share a dataflow node (max() over counts
        // would pollute max() over watts). pos-1 is the callee ident, the
        // same token CallSite and CallArg records take their line from.
        return {"c:" + cur + "@" + std::to_string(t.line(pos - 1)), close};
      }
      if (t.is(pos, "[")) {  // subscripts are transparent (element of base)
        pos = MatchGroup(t, pos, "[", "]");
        continue;
      }
      if (t.is(pos, ".") || t.is(pos, "->")) {
        if (!t.IsIdent(pos + 1)) return {"?:", pos};
        if (!member && cur != "this") root = cur;
        cur = t.text(pos + 1);
        member = true;
        pos += 2;
        continue;
      }
      if (t.is(pos, "::")) {  // qualification, not member access
        if (!t.IsIdent(pos + 1)) return {"?:", pos};
        cur = t.text(pos + 1);
        pos += 2;
        continue;
      }
      break;
    }
    if (cur == "this") return {"?:", pos};
    if (!member) return {"v:" + cur, pos};
    return {"m:" + cur + (root.empty() ? "" : "^" + root), pos};
  }

  // Finds the start of the operand that ends just before `k`, then parses
  // it forward. Returns "" when nothing parseable precedes `k`.
  [[nodiscard]] std::string OperandBack(std::size_t lo, std::size_t k) const {
    std::size_t j = k;
    while (true) {
      if (j <= lo) return "";
      std::size_t p = j - 1;
      if (t.is(p, ")") || t.is(p, "]")) {
        const std::string_view open = t.is(p, ")") ? "(" : "[";
        const std::string_view close = t.is(p, ")") ? ")" : "]";
        int depth = 0;
        while (true) {
          if (t.is(p, close)) ++depth;
          if (t.is(p, open) && --depth == 0) break;
          if (p == lo) return "";
          --p;
        }
        // A call-ish group: keep the callee name (and its receiver chain).
        if (p > lo && t.IsIdent(p - 1)) {
          if (t.text(p - 1).starts_with("GL_")) {
            // Annotation macro — not part of the operand; keep walking.
            j = p - 1;
            continue;
          }
          j = p - 1;
        } else {
          j = p;
          break;  // plain parenthesized group: operand starts at '('
        }
      } else if (t.IsIdent(p) || t.kind(p) == TokKind::kNumber) {
        j = p;
      } else {
        return "";
      }
      // Extend left over member/qualifier chains: a.b / a->b / a::b.
      if (j > lo + 1 &&
          (t.is(j - 1, ".") || t.is(j - 1, "->") || t.is(j - 1, "::")) &&
          t.IsIdent(j - 2)) {
        j -= 2;
        continue;
      }
      break;
    }
    return OperandFwd(j, k).first;
  }

  // Splits [lo,hi) at top-level additive/ternary boundaries and appends one
  // term per trackable chunk. A chunk with '*' or '/' flows its single
  // non-literal factor (x * 0.5 keeps x's dimension); two tracked factors
  // make a genuinely new dimension, which the scanner cannot represent.
  // The right operand of a binary operator: the first multiplicative chunk
  // after the operator, via FlowTerms. A product of two tracked factors has
  // no single dimension, so `s += cpu / ref.cpu` must NOT flow cpu's
  // dimension into s — the chunk is untracked ("?:") instead. The region is
  // cut at a top-level '?' (the operand is just the ternary condition) and
  // at the enclosing group's close.
  [[nodiscard]] std::string RhsChunk(std::size_t from, std::size_t e) const {
    std::size_t stop = e;
    int depth = 0;
    for (std::size_t k = from; k < e; ++k) {
      if (t.is(k, "(") || t.is(k, "[") || t.is(k, "{")) ++depth;
      if (t.is(k, ")") || t.is(k, "]") || t.is(k, "}")) --depth;
      if (depth < 0 || (depth == 0 && t.is(k, "?"))) {
        stop = k;
        break;
      }
    }
    std::vector<std::string> terms;
    FlowTerms(from, stop, &terms);
    return terms.empty() ? std::string() : terms[0];
  }

  void FlowTerms(std::size_t lo, std::size_t hi,
                 std::vector<std::string>* terms) const {
    std::size_t chunk = lo;
    int depth = 0;
    const auto flush = [&](std::size_t end) {
      if (chunk >= end) return;
      std::vector<std::size_t> factor_starts = {chunk};
      bool opaque = false;
      int d2 = 0;
      for (std::size_t k = chunk; k < end; ++k) {
        if (t.is(k, "(") || t.is(k, "[") || t.is(k, "{")) ++d2;
        if (t.is(k, ")") || t.is(k, "]") || t.is(k, "}")) --d2;
        if (d2 != 0) continue;
        const std::string& s = t.text(k);
        if (s == "*" || s == "/") {
          if (k > chunk && (t.IsIdent(k - 1) ||
                            t.kind(k - 1) == TokKind::kNumber ||
                            t.is(k - 1, ")") || t.is(k - 1, "]"))) {
            factor_starts.push_back(k + 1);  // binary, not deref
          }
        } else if (kFlowBreakers.count(s) || s == "<" || s == ">" ||
                   s == "<=" || s == ">=" || s == "==" || s == "!=" ||
                   s == "=") {
          opaque = true;
        }
      }
      if (opaque) {
        terms->push_back("?:");
      } else if (factor_starts.size() == 1) {
        const std::string term = OperandFwd(chunk, end).first;
        if (!term.empty()) terms->push_back(term);
      } else {
        std::string tracked;
        int non_literal = 0;
        for (std::size_t fs : factor_starts) {
          const std::string f = OperandFwd(fs, end).first;
          if (f.empty() || f == "?:") {
            non_literal = 2;  // untrackable factor: give up
            break;
          }
          if (f != "k:") {
            ++non_literal;
            tracked = f;
          }
        }
        terms->push_back(non_literal == 1 ? tracked : std::string("?:"));
      }
      chunk = end;
    };
    for (std::size_t k = lo; k < hi; ++k) {
      if (t.is(k, "(") || t.is(k, "[") || t.is(k, "{")) ++depth;
      if (t.is(k, ")") || t.is(k, "]") || t.is(k, "}")) --depth;
      if (depth != 0) continue;
      const std::string& s = t.text(k);
      const bool binary_pm =
          (s == "+" || s == "-") && k > lo &&
          ((t.IsIdent(k - 1) && !IsReservedWord(t.text(k - 1))) ||
           t.kind(k - 1) == TokKind::kNumber || t.is(k - 1, ")") ||
           t.is(k - 1, "]"));
      if (binary_pm || s == "?" || s == ":" || s == ",") {
        flush(k);
        chunk = k + 1;
        if (s == "?") {
          // Everything before '?' is the condition, not a flowing value.
          terms->clear();
        }
      }
    }
    flush(hi);
  }

  // The per-statement scanner. `begin`/`end` span the function body.
  void ScanStatements(int fidx, std::size_t begin, std::size_t end) {
    // Prepass: deterministic-counter locals (GL016 receivers).
    std::unordered_set<std::string> counter_locals;
    for (std::size_t k = begin; k < end; ++k) {
      if (!t.IsIdent(k)) continue;
      const std::string& s = t.text(k);
      if (s == "Counter" && t.is(k + 1, "&") && t.IsIdent(k + 2)) {
        for (std::size_t q = k; q < end && !t.is(q, ";"); ++q) {
          if (t.is(q, "kDeterministic")) {
            counter_locals.insert(t.text(k + 2));
            break;
          }
        }
      }
    }

    // Lock scope tracking: innermost open brace inside the body.
    std::vector<std::size_t> braces;

    std::size_t stmt = begin;
    for (std::size_t k = begin; k <= end; ++k) {
      const bool boundary =
          k == end || t.is(k, ";") || t.is(k, "{") || t.is(k, "}");
      if (t.is(k, "{") && k < end) braces.push_back(k);
      if (t.is(k, "}") && !braces.empty()) braces.pop_back();
      if (!boundary) continue;
      ScanOneStatement(fidx, stmt, k, braces, counter_locals);
      stmt = k + 1;
    }
  }

  [[nodiscard]] int ScopeEndLine(const std::vector<std::size_t>& braces) const {
    if (braces.empty()) return body_end_line;
    const std::size_t close = MatchGroup(t, braces.back(), "{", "}");
    return close > braces.back() + 1 ? t.line(close - 1) : body_end_line;
  }

  void ScanOneStatement(int fidx, std::size_t s, std::size_t e,
                        const std::vector<std::size_t>& braces,
                        const std::unordered_set<std::string>& counter_locals) {
    if (s >= e) return;

    // GL_UNITS on a local declaration: `double x GL_UNITS(watts) = ...`.
    for (std::size_t k = s; k < e; ++k) {
      if (t.is(k, "GL_UNITS") && t.is(k + 1, "(") && t.IsIdent(k + 2) &&
          t.IsIdent(k - 1)) {
        out.unit_decls.push_back(
            {fidx, t.text(k - 1), t.text(k + 2), t.line(k)});
      }
    }

    // Int-family declarations default to "count".
    for (std::size_t k = s; k + 1 < e; ++k) {
      if (t.IsIdent(k) && kIntTypes.count(t.text(k)) && t.IsIdent(k + 1) &&
          !IsReservedWord(t.text(k + 1)) && !kIntTypes.count(t.text(k + 1))) {
        const std::string& nxt = t.text(k + 2);
        if (nxt == "=" || nxt == ";" || nxt == "," || nxt == ")" ||
            nxt == ":" || k + 2 >= e) {
          out.unit_decls.push_back({fidx, t.text(k + 1), "count", t.line(k)});
        }
      }
    }

    // Loops over named containers (GL001 / GL016 raw material).
    for (std::size_t k = s; k + 1 < e; ++k) {
      if (t.is(k, "for") && t.is(k + 1, "(")) {
        const std::size_t close = MatchGroup(t, k + 1, "(", ")");
        ScanLoopHeader(fidx, k, close <= e ? close - 1 : e);
      }
    }

    // Lock sites.
    for (std::size_t k = s; k < e; ++k) {
      if (t.is(k, "MutexLock") && t.IsIdent(k + 1) && t.is(k + 2, "(")) {
        const std::size_t close = MatchGroup(t, k + 2, "(", ")");
        std::string lock;
        for (std::size_t q = k + 3; q < close; ++q) {
          if (t.IsIdent(q) && t.text(q) != "this") lock = t.text(q);
        }
        if (!lock.empty()) {
          out.lock_acquires.push_back({fidx, lock, t.line(k),
                                       ScopeEndLine(braces),
                                       LineText(t.line(k))});
        }
      }
      if (t.is(k, "Lock") && t.is(k + 1, "(") && t.is(k + 2, ")") &&
          (t.is(k - 1, ".") || t.is(k - 1, "->")) && t.IsIdent(k - 2)) {
        const std::string base = t.text(k - 2);
        int scope_end = body_end_line;
        for (std::size_t q = k + 3; q < t.size(); ++q) {
          if (t.is(q, "Unlock") && (t.is(q - 1, ".") || t.is(q - 1, "->")) &&
              t.is(q - 2, base)) {
            scope_end = t.line(q);
            break;
          }
        }
        out.lock_acquires.push_back(
            {fidx, base, t.line(k), scope_end, LineText(t.line(k))});
      }
    }

    // Binary operators (any nesting depth); template args are skipped.
    static const std::unordered_set<std::string_view> kUnitOps = {
        "+", "-", "+=", "-=", "<", "<=", ">", ">=", "==", "!="};
    for (std::size_t k = s; k < e; ++k) {
      if (t.IsIdent(k) && t.is(k + 1, "<")) {
        const std::size_t p = SkipTemplateArgs(t, k + 1);
        if (p != k + 1) {
          k = p - 1;  // template argument list, not comparisons
          continue;
        }
      }
      const std::string& op = t.text(k);
      if (t.kind(k) != TokKind::kPunct || !kUnitOps.count(op)) continue;
      if (op == "+" || op == "-") {
        const bool binary =
            k > s && ((t.IsIdent(k - 1) && !IsReservedWord(t.text(k - 1))) ||
                      t.kind(k - 1) == TokKind::kNumber || t.is(k - 1, ")") ||
                      t.is(k - 1, "]"));
        if (!binary) continue;
      }
      const std::string lhs = OperandBack(s, k);
      const std::string rhs = RhsChunk(k + 1, e);
      if (lhs.empty() || rhs.empty()) continue;
      if ((lhs == "?:" || lhs == "k:") && (rhs == "?:" || rhs == "k:")) {
        continue;  // nothing trackable on either side
      }
      out.binops.push_back(
          {fidx, op, lhs, rhs, t.line(k), LineText(t.line(k))});
      if (op == "+=" || op == "-=") {  // also a flow into the target
        if (rhs != "?:" && rhs != "k:" && lhs != "?:" && lhs != "k:") {
          out.assigns.push_back(
              {fidx, lhs, rhs, t.line(k), LineText(t.line(k))});
        }
      }
    }

    // Assignment flow: first top-level '='.
    {
      int depth = 0;
      for (std::size_t k = s; k < e; ++k) {
        if (t.is(k, "(") || t.is(k, "[")) ++depth;
        if (t.is(k, ")") || t.is(k, "]")) --depth;
        if (depth != 0 || !t.is(k, "=")) continue;
        const std::string lhs = OperandBack(s, k);
        if (!lhs.empty() && lhs != "?:" && lhs != "k:") {
          std::vector<std::string> rhs;
          FlowTerms(k + 1, e, &rhs);
          for (const std::string& r : rhs) {
            if (r != "?:" && r != "k:") {
              out.assigns.push_back(
                  {fidx, lhs, r, t.line(k), LineText(t.line(k))});
            }
          }
        }
        break;
      }
    }

    // Return flow.
    if (t.is(s, "return") && s + 1 < e) {
      std::vector<std::string> terms;
      FlowTerms(s + 1, e, &terms);
      for (const std::string& r : terms) {
        if (r != "?:" && r != "k:") {
          out.returns.push_back({fidx, r, t.line(s)});
        }
      }
    }

    // Call arguments.
    for (std::size_t k = s; k < e; ++k) {
      if (!t.IsIdent(k) || !t.is(k + 1, "(") || IsReservedWord(t.text(k)) ||
          t.is(k - 1, "new") || t.text(k).starts_with("GL_")) {
        continue;
      }
      std::string callee = t.text(k);
      if (callee == "MutexLock") continue;
      if ((callee == "Add" || callee == "Increment") &&
          (t.is(k - 1, ".") || t.is(k - 1, "->")) && t.IsIdent(k - 2) &&
          counter_locals.count(t.text(k - 2))) {
        callee = "Counter::" + callee;
      }
      const std::size_t close = MatchGroup(t, k + 1, "(", ")");
      // Split the argument list at top-level commas.
      int depth = 0;
      std::size_t arg_start = k + 2;
      int index = 0;
      for (std::size_t q = k + 2; q <= close - 1 && q < t.size(); ++q) {
        if (t.is(q, "(") || t.is(q, "[") || t.is(q, "{")) ++depth;
        if (t.is(q, ")") || t.is(q, "]") || t.is(q, "}")) --depth;
        const bool last = q == close - 1;
        if ((t.is(q, ",") && depth == 0) || last) {
          const std::size_t arg_end = last ? close - 1 : q;
          if (arg_end > arg_start) {
            std::vector<std::string> terms;
            FlowTerms(arg_start, arg_end, &terms);
            for (const std::string& term : terms) {
              if (term != "?:" && term != "k:") {
                // Line of the callee ident: the same key OperandFwd bakes
                // into "c:callee@line" terms for this call.
                out.call_args.push_back({fidx, callee, index, term, t.line(k),
                                         LineText(t.line(k))});
              }
            }
          }
          arg_start = q + 1;
          ++index;
        }
      }
    }
  }

  // One for-loop header: `for (` at `k`, header tokens up to `hi` (its ')'
  // or, for a classic loop, the end of the init statement). A range-for is
  // recorded when its range expression is a plain, qualified or member
  // name, optionally subscripted (`name[...]`) or called (`name(...)`); a
  // classic loop when its init clause takes `name.begin()`.
  void ScanLoopHeader(int fidx, std::size_t k, std::size_t hi) {
    RangeLoop loop;
    loop.func = fidx;
    loop.line = t.line(k);
    loop.line_text = LineText(loop.line);
    int depth = 0;
    for (std::size_t q = k + 2; q < hi; ++q) {
      if (t.is(q, "(") || t.is(q, "[") || t.is(q, "{")) ++depth;
      if (t.is(q, ")") || t.is(q, "]") || t.is(q, "}")) --depth;
      if (depth != 0 || !t.is(q, ":")) continue;
      if (t.IsIdent(q - 1)) loop.vars.push_back("v:" + t.text(q - 1));
      if (t.is(q - 1, "]")) {  // structured bindings: `auto& [k, v] : m`
        std::size_t b = q - 1;
        while (b > k + 2 && !t.is(b, "[")) --b;
        for (std::size_t n = b + 1; n + 1 < q; ++n) {
          if (t.IsIdent(n)) loop.vars.push_back("v:" + t.text(n));
        }
      }
      std::size_t j = q + 1;
      if (!t.IsIdent(j)) return;
      while ((t.is(j + 1, "::") || t.is(j + 1, ".") || t.is(j + 1, "->")) &&
             t.IsIdent(j + 2)) {
        loop.member = !t.is(j + 1, "::");
        j += 2;
      }
      loop.container = t.text(j);
      if (j + 1 < hi) {
        const bool subscript = t.is(j + 1, "[");
        if (!subscript && !t.is(j + 1, "(")) return;
        if (MatchGroup(t, j + 1, subscript ? "[" : "(",
                       subscript ? "]" : ")") != hi) {
          return;
        }
        loop.shape = subscript ? 'e' : 'f';
      }
      out.loops.push_back(std::move(loop));
      return;
    }
    for (std::size_t q = k + 2; q + 3 < hi; ++q) {
      if (t.IsIdent(q) && t.is(q + 1, ".") &&
          (t.is(q + 2, "begin") || t.is(q + 2, "cbegin")) &&
          t.is(q + 3, "(")) {
        loop.container = t.text(q);
        loop.member = t.is(q - 1, ".") || t.is(q - 1, "->");
        out.loops.push_back(std::move(loop));
        return;
      }
    }
  }

  // --- whole-file token patterns (GL002–GL006, GL009) ----------------------

  void Hit(const char* rule, const std::string& detail, int line) {
    out.pattern_hits.push_back({rule, detail, line, LineText(line)});
  }

  [[nodiscard]] bool ShapeMatches(NondetShape shape, std::size_t k) const {
    const bool member = t.is(k - 1, ".") || t.is(k - 1, "->");
    switch (shape) {
      case NondetShape::kAny:
        return true;
      case NondetShape::kCall:
        return !member && t.is(k + 1, "(");
      case NondetShape::kNullary:
        return !member && t.is(k + 1, "(") &&
               (t.is(k + 2, ")") ||
                ((t.is(k + 2, "NULL") || t.is(k + 2, "nullptr") ||
                  t.is(k + 2, "0")) &&
                 t.is(k + 3, ")")));
      case NondetShape::kStaticCall:
        return t.is(k - 1, "::") && t.is(k + 1, "(");
      case NondetShape::kTemplate:
        return t.is(k + 1, "<");
    }
    return false;
  }

  void ScanPatterns() {
    // Indexed by Nondet: kRng, kTime, kRawClock, kTimer.
    static const char* const kNondetRule[] = {"GL002", "GL003", "GL009", ""};
    for (std::size_t k = 0; k < t.size(); ++k) {
      const std::string& s = t.text(k);
      if (s == "==" || s == "!=") {
        ScanFloatEquality(k);
        continue;
      }
      if (!t.IsIdent(k)) continue;
      const NondetToken* n = FindNondet(s);
      if (n != nullptr && ShapeMatches(n->shape, k)) {
        const char* rule = kNondetRule[static_cast<int>(n->kind)];
        if (*rule != '\0') Hit(rule, s, t.line(k));
      }
      const bool std_member = t.is(k - 1, "::") && t.is(k - 2, "std");
      if (((s == "thread" || s == "jthread" || s == "async") && std_member) ||
          s == "pthread_create" ||
          (s == "detach" && (t.is(k - 1, ".") || t.is(k - 1, "->")) &&
           t.is(k + 1, "("))) {
        Hit("GL006", s, t.line(k));
      }
      if (t.is(k + 1, "<") &&
          (kUnorderedContainers.count(s) || kOrderedAssoc.count(s) ||
           kElementContainers.count(s))) {
        RecordContainer(k);
      }
    }
  }

  // GL005: `==` / `!=` at `k` with a resource field on either side.
  void ScanFloatEquality(std::size_t k) {
    std::size_t j = k + 1;
    while (t.IsIdent(j) && (t.is(j + 1, ".") || t.is(j + 1, "->")) &&
           t.IsIdent(j + 2)) {
      j += 2;
    }
    if (t.IsIdent(k - 1) && kResourceFields.count(t.text(k - 1))) {
      Hit("GL005", t.text(k - 1) + " " + t.text(k), t.line(k));
    } else if (j > k + 1 && kResourceFields.count(t.text(j)) &&
               !t.is(j + 1, "(")) {
      Hit("GL005", t.text(k) + " " + t.text(j), t.line(k));
    }
  }

  // A container template-id at `k`: records the name it declares with the
  // order properties that name carries (unordered, pointer-keyed, or a
  // container of unordered ones). Template-ids nested in another argument
  // list declare nothing themselves; a pointer key is still reported.
  void RecordContainer(std::size_t k) {
    const std::size_t close = SkipTemplateArgs(t, k + 1);
    if (close == k + 1 || t.is(k - 1, ".") || t.is(k - 1, "->")) return;
    const std::string& s = t.text(k);
    const bool assoc = kUnorderedContainers.count(s) || kOrderedAssoc.count(s);
    ContainerDecl d;
    d.func = func_of[k];
    d.unordered = kUnorderedContainers.count(s) > 0;
    d.line = t.line(k);
    int depth = 0;
    bool in_key = true;
    for (std::size_t q = k + 1; q < close; ++q) {
      const std::string& a = t.text(q);
      if (a == "(") {
        q = MatchGroup(t, q, "(", ")") - 1;
      } else if (a == "<") {
        ++depth;
      } else if (a == ">" || a == ">>") {
        depth -= a == ">" ? 1 : 2;
      } else if (a == "," && depth == 1) {
        in_key = false;
      } else if (a == "*" && in_key && assoc) {
        d.pointer_key = true;
      } else if (!assoc && kUnorderedContainers.count(a)) {
        d.unordered = true;
        d.shape = 'e';
      }
    }
    const bool nested = depth < 0 || t.is(close, ",") || t.is(close, ">") ||
                        t.is(close, ">>");
    std::size_t p = close;
    while (t.is(p, "&") || t.is(p, "&&") || t.is(p, "*") || t.is(p, "const")) {
      ++p;
    }
    if (!nested && t.IsIdent(p) && !IsReservedWord(t.text(p))) {
      while (t.is(p + 1, "::") && t.IsIdent(p + 2)) p += 2;
      const bool function = t.is(p + 1, "(") && d.func < 0;
      if (!function || d.shape == 'v') {
        d.name = t.text(p);
        if (function) d.shape = 'f';
      }
    }
    if (!d.pointer_key && (d.name.empty() || !d.unordered)) return;
    d.line_text = LineText(d.line);
    out.containers.push_back(std::move(d));
  }

  // GL007: a namespace-scope statement that defines a mutable variable.
  // `head` holds the statement's tokens, brace initializers folded into
  // their closing '}'.
  void ProcessNamespaceStatement(const std::vector<std::size_t>& head) {
    std::size_t b = 0;
    while (b + 1 < head.size() && t.is(head[b], "[") &&
           t.is(head[b + 1], "[")) {  // [[attributes]]
      while (b < head.size() && !t.is(head[b], "]")) ++b;
      b += 2;
    }
    if (b >= head.size() || kNonVariableLeads.count(t.text(head[b]))) return;
    std::size_t lead = b;
    while (t.is(head[lead], "static") || t.is(head[lead], "inline")) {
      if (++lead == head.size()) return;
    }
    if (t.is(head[lead], "const")) return;
    std::size_t paren = head.size();
    std::size_t eq = head.size();
    std::size_t end = head.size();  // where the declarator's initializer starts
    for (std::size_t h = b; h < head.size(); ++h) {
      const std::string& s = t.text(head[h]);
      if (s == "constexpr" || s == "constinit" || s == "operator") return;
      if (s == "(" && paren == head.size()) paren = h;
      if (s == "=" && eq == head.size()) eq = h;
      if ((s == "=" || s == "}") && end == head.size()) end = h;
    }
    if (paren < eq) return;  // function declaration or macro invocation
    if (end > b && t.is(head[end - 1], "]")) {  // array declarator
      while (end > b && !t.is(head[end - 1], "[")) --end;
      if (end > b) --end;
    }
    if (end < b + 2 || !t.IsIdent(head[end - 1]) ||
        IsReservedWord(t.text(head[end - 1]))) {
      return;
    }
    Hit("GL007", t.text(head[end - 1]), t.line(head[b]));
  }

  // Parses a function signature: the parameter list starting at `paren_tok`
  // and the trailing specifiers up to the body's '{' at `body_open`. Emits
  // ParamDecl records, return-units and lock annotations.
  void ParseSignature(int fidx, std::size_t paren_tok, std::size_t body_open) {
    const std::size_t paren_end = MatchGroup(t, paren_tok, "(", ")");

    int index = 0;
    std::size_t seg = paren_tok + 1;
    int depth = 0;
    for (std::size_t k = paren_tok + 1; k < paren_end && k < t.size(); ++k) {
      if (t.IsIdent(k) && t.is(k + 1, "<")) {
        const std::size_t p = SkipTemplateArgs(t, k + 1);
        if (p != k + 1 && p <= paren_end) {
          k = p - 1;  // commas inside template args are not separators
          continue;
        }
      }
      if (t.is(k, "(") || t.is(k, "[") || t.is(k, "{")) ++depth;
      if (t.is(k, ")") || t.is(k, "]") || t.is(k, "}")) --depth;
      const bool last = k + 1 >= paren_end;
      if ((t.is(k, ",") && depth == 0) || last) {
        const std::size_t seg_end = t.is(k, ",") && depth == 0 ? k : k;
        if (seg_end > seg) EmitParam(fidx, index++, seg, seg_end);
        seg = k + 1;
      }
    }

    // Trailing specifiers: GL_UNITS(dim) / GL_ACQUIRE(l) / GL_REQUIRES(l).
    for (std::size_t k = paren_end; k < body_open; ++k) {
      if (!t.IsIdent(k) || !t.is(k + 1, "(") || !t.IsIdent(k + 2)) continue;
      const std::string& s = t.text(k);
      if (s == "GL_UNITS") {
        out.functions[static_cast<std::size_t>(fidx)].ret_units =
            t.text(k + 2);
      } else if (s == "GL_ACQUIRE" || s == "GL_ACQUIRE_SHARED") {
        out.lock_annos.push_back({fidx, "acquire", t.text(k + 2)});
      } else if (s == "GL_REQUIRES" || s == "GL_REQUIRES_SHARED") {
        out.lock_annos.push_back({fidx, "requires", t.text(k + 2)});
      }
    }
  }

  void EmitParam(int fidx, int index, std::size_t lo, std::size_t hi) {
    std::string units;
    std::string name;
    bool is_int = false;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::string& s = t.text(k);
      if (s == "=") break;  // default argument
      if (s == "GL_UNITS" && t.is(k + 1, "(") && t.IsIdent(k + 2)) {
        units = t.text(k + 2);
        k = MatchGroup(t, k + 1, "(", ")") - 1;
        continue;
      }
      if (t.IsIdent(k) && s.starts_with("GL_")) {
        if (t.is(k + 1, "(")) k = MatchGroup(t, k + 1, "(", ")") - 1;
        continue;
      }
      if (t.IsIdent(k) && kIntTypes.count(s)) is_int = true;
      if (t.is(k + 1, "<")) {  // skip template arguments of the type
        const std::size_t p = SkipTemplateArgs(t, k + 1);
        if (p != k + 1) {
          k = p - 1;
          continue;
        }
      }
      if (t.IsIdent(k) && !IsReservedWord(s)) name = s;
    }
    if (name.empty()) return;
    if (units.empty() && is_int) units = "count";
    out.params.push_back({fidx, index, name, units});
  }

  // --- class members (GL011) ----------------------------------------------

  struct MemberInfo {
    std::string name;
    int line = 0;
    bool annotated = false;
    bool exempt = false;    // const / atomic / sync primitive / reference
    bool is_mutex = false;  // owning mutex member
  };

  struct ClassCtx {
    std::string name;
    std::vector<MemberInfo> members;
    bool owns_mutex = false;
  };

  void ProcessMemberStatement(const std::vector<std::size_t>& head,
                              ClassCtx* cls) {
    if (head.empty()) return;
    bool annotated = false;
    bool exempt = false;
    bool is_mutex = false;
    bool is_ref = false;
    bool is_int = false;
    std::string units;
    int angle = 0;
    std::size_t name_tok = t.size();
    for (std::size_t hi = 0; hi < head.size(); ++hi) {
      const std::size_t k = head[hi];
      const std::string& s = t.text(k);
      if (s == "<" && hi > 0 && t.IsIdent(head[hi - 1])) { ++angle; continue; }
      if (s == ">" && angle > 0) { --angle; continue; }
      if (s == ">>" && angle > 0) { angle = std::max(0, angle - 2); continue; }
      if (angle > 0) continue;
      if (s == "using" || s == "typedef" || s == "friend" || s == "static" ||
          s == "template" || s == "static_assert" || s == "operator" ||
          s == "enum" || s == "class" || s == "struct" || s == "union" ||
          s == ":") {
        return;  // not an instance data member (':' = bit-field / base)
      }
      if (s == "GL_GUARDED_BY" || s == "GL_PT_GUARDED_BY" ||
          s == "GL_UNITS") {
        if (s != "GL_UNITS") annotated = true;
        // Skip the annotation's argument list (capturing a GL_UNITS dim).
        if (hi + 1 < head.size() && t.is(head[hi + 1], "(")) {
          if (s == "GL_UNITS" && hi + 2 < head.size() &&
              t.IsIdent(head[hi + 2])) {
            units = t.text(head[hi + 2]);
          }
          int d = 0;
          while (hi < head.size()) {
            if (t.is(head[hi], "(")) ++d;
            if (t.is(head[hi], ")") && --d == 0) break;
            ++hi;
          }
        }
        continue;
      }
      if (s == "(") {
        // A top-level call-ish paren group that is not an annotation:
        // member function declaration (incl. function-pointer members).
        return;
      }
      if (s == "const" || s == "constexpr") exempt = true;
      if (s == "atomic") exempt = true;
      if (t.IsIdent(k) && kIntTypes.count(s)) is_int = true;
      if (s == "&") is_ref = true;
      if (t.IsIdent(k) && kCondVarTypes.count(s)) { exempt = true; }
      if (t.IsIdent(k) && kMutexTypes.count(s)) is_mutex = true;
      if (s == "=" || s == "[" || s == "{") break;
      if (t.IsIdent(k) && !IsReservedWord(s)) name_tok = k;
    }
    if (name_tok == t.size()) return;
    if (is_mutex && is_ref) {
      is_mutex = false;  // borrowed mutex (e.g. MutexLock), not ownership
      exempt = true;
    }
    if (is_mutex) cls->owns_mutex = true;
    if (units.empty() && is_int) units = "count";
    if (!units.empty() && !cls->name.empty()) {
      out.unit_decls.push_back({-1, cls->name + "::" + t.text(name_tok),
                                units, t.line(name_tok)});
    }
    cls->members.push_back({t.text(name_tok), t.line(name_tok), annotated,
                            exempt, is_mutex});
  }

  void FinalizeClass(const ClassCtx& cls) {
    if (!cls.owns_mutex) return;
    const auto annotated = [](const MemberInfo& m) { return m.annotated; };
    if (std::none_of(cls.members.begin(), cls.members.end(), annotated)) {
      // GL008: nothing names what the mutex guards. One finding per class,
      // at its mutex, instead of a GL011 per unannotated member.
      for (const MemberInfo& m : cls.members) {
        if (m.is_mutex) {
          Hit("GL008", m.name, m.line);
          return;
        }
      }
    }
    for (const MemberInfo& m : cls.members) {
      if (m.is_mutex || m.exempt || m.annotated) continue;
      out.unguarded.push_back(
          {cls.name, m.name, m.line, LineText(m.line)});
    }
  }
};

// ---------------------------------------------------------------------------
// Scope machine: walks namespace/class scope, indexes function definitions,
// skips (and scans) their bodies wholesale.
// ---------------------------------------------------------------------------
void WalkStructure(Extractor& ex) {
  const SView& t = ex.t;
  enum class ScopeType { kNamespace, kClass, kBlock };
  struct Scope {
    ScopeType type;
    Extractor::ClassCtx cls;
  };
  std::vector<Scope> scopes;
  std::vector<std::size_t> head;

  const auto current_class = [&]() -> Extractor::ClassCtx* {
    return !scopes.empty() && scopes.back().type == ScopeType::kClass
               ? &scopes.back().cls
               : nullptr;
  };

  std::size_t i = 0;
  while (i < t.size()) {
    const std::string& s = t.text(i);

    // `inline namespace v1 {` opens a namespace scope too.
    if (t.IsIdent(i) && s == "namespace" &&
        (head.empty() || (head.size() == 1 && t.is(head[0], "inline")))) {
      std::size_t j = i + 1;
      while (j < t.size() && !t.is(j, "{") && !t.is(j, ";") && !t.is(j, "=")) {
        ++j;
      }
      if (t.is(j, "{")) {
        scopes.push_back({ScopeType::kNamespace, {}});
        i = j + 1;
      } else if (t.is(j, "=")) {  // namespace alias
        while (j < t.size() && !t.is(j, ";")) ++j;
        i = j + 1;
      } else {
        i = j + 1;
      }
      head.clear();
      continue;
    }

    if (t.IsIdent(i) && s == "enum") {
      std::size_t j = i + 1;
      while (j < t.size() && !t.is(j, "{") && !t.is(j, ";")) ++j;
      i = t.is(j, "{") ? MatchGroup(t, j, "{", "}") : j + 1;
      head.clear();
      continue;
    }

    if (t.IsIdent(i) && (s == "class" || s == "struct" || s == "union")) {
      // Scan ahead for '{' (definition) or ';' (declaration / member).
      std::size_t j = i + 1;
      std::string name;
      bool in_bases = false;
      while (j < t.size() && !t.is(j, "{") && !t.is(j, ";")) {
        if (t.is(j, "(")) { j = MatchGroup(t, j, "(", ")"); continue; }
        if (t.is(j, ":") && !t.is(j + 1, ":") && !t.is(j - 1, ":")) {
          in_bases = true;
        }
        if (!in_bases && t.IsIdent(j) && !IsReservedWord(t.text(j)) &&
            t.text(j) != "final" && !t.text(j).starts_with("GL_")) {
          name = t.text(j);
        }
        ++j;
      }
      if (t.is(j, "{")) {
        Scope sc{ScopeType::kClass, {}};
        sc.cls.name = name;
        scopes.push_back(std::move(sc));
        i = j + 1;
      } else {
        i = j + 1;  // forward declaration or `struct X*` member — skip
      }
      head.clear();
      continue;
    }

    if (t.IsIdent(i) &&
        (s == "public" || s == "private" || s == "protected") &&
        t.is(i + 1, ":") && current_class() != nullptr) {
      i += 2;
      head.clear();
      continue;
    }

    if (s == "{") {
      // extern "C" { ... } keeps namespace-like scope.
      if (head.size() == 2 && t.is(head[0], "extern") &&
          t.kind(head[1]) == TokKind::kString) {
        scopes.push_back({ScopeType::kNamespace, {}});
        ++i;
        head.clear();
        continue;
      }
      // Function body vs brace initializer: a body's '{' follows ')', '}',
      // '>', a reserved type word, or a specifier; an initializer's '{'
      // follows the variable name, '=', ',' or '('.
      const std::string& last = head.empty() ? SView::kEmpty
                                             : t.text(head.back());
      // A ')' closing a GL_ annotation arg list (`double x GL_UNITS(w){}`)
      // still introduces an initializer, not a body — unless the statement
      // also has a parameter list (then it's a function with a trailing
      // annotation, e.g. `double f() const GL_UNITS(watts) { ... }`).
      bool after_annotation = false;
      if (last == ")") {
        int d = 0;
        for (std::size_t hi = head.size(); hi-- > 0;) {
          if (t.is(head[hi], ")")) ++d;
          if (t.is(head[hi], "(") && --d == 0) {
            after_annotation = hi > 0 && t.IsIdent(head[hi - 1]) &&
                               t.text(head[hi - 1]).starts_with("GL_");
            if (after_annotation) {
              for (std::size_t pj = 0; pj + 1 < hi; ++pj) {
                if (t.is(head[pj + 1], "(") && t.IsIdent(head[pj]) &&
                    !t.text(head[pj]).starts_with("GL_")) {
                  after_annotation = false;  // param list → function body
                  break;
                }
              }
            }
            break;
          }
        }
      }
      const bool init_like =
          !head.empty() &&
          (last == "=" || last == "," || last == "(" || last == "[" ||
           after_annotation ||
           (t.IsIdent(head.back()) && !IsReservedWord(last) &&
            !kBodyIntroducers.count(last)));
      if (head.empty() || init_like) {
        // Brace initializer (member/global init) — consume, keep statement
        // open. An empty head is a stray block; skip it the same way.
        const std::size_t close = MatchGroup(t, i, "{", "}");
        if (!head.empty()) head.push_back(close - 1);  // '}' marker
        i = close;
        continue;
      }
      // Function definition: name = identifier before the first top-level
      // paren group; Class::Name qualification wins over lexical scope.
      std::string fname;
      std::string fclass;
      int fline = t.line(i);
      std::size_t paren_tok = t.size();
      int angle = 0;
      for (std::size_t hi = 0; hi < head.size(); ++hi) {
        const std::size_t k = head[hi];
        const std::string& hs = t.text(k);
        if (hs == "<" && hi > 0 && t.IsIdent(head[hi - 1])) { ++angle; continue; }
        if (hs == ">" && angle > 0) { --angle; continue; }
        if (hs == ">>" && angle > 0) { angle = std::max(0, angle - 2); continue; }
        if (angle > 0) continue;
        if (hs == "(" && hi > 0 && t.IsIdent(head[hi - 1]) &&
            !t.text(head[hi - 1]).starts_with("GL_")) {
          fname = t.text(head[hi - 1]);
          fline = t.line(head[hi - 1]);
          paren_tok = k;
          if (hi >= 3 && t.is(head[hi - 2], "::") &&
              t.IsIdent(head[hi - 3])) {
            fclass = t.text(head[hi - 3]);
          }
          break;
        }
        if (hs == "operator") {
          fname = "operator";
          break;
        }
      }
      if (fclass.empty()) {
        const Extractor::ClassCtx* cc = current_class();
        if (cc != nullptr) fclass = cc->name;
      }
      const std::size_t body_end = MatchGroup(t, i, "{", "}");
      if (!fname.empty()) {
        const int fidx = static_cast<int>(ex.out.functions.size());
        FunctionDef def;
        def.name = fname;
        def.class_name = fclass;
        def.line = fline;
        def.body_end_line = t.line(body_end - 1);
        def.line_text = ex.LineText(fline);
        ex.out.functions.push_back(std::move(def));
        ex.body_end_line = t.line(body_end - 1);
        if (paren_tok < t.size()) ex.ParseSignature(fidx, paren_tok, i);
        for (std::size_t q = paren_tok < t.size() ? paren_tok : i;
             q < body_end; ++q) {
          ex.func_of[q] = fidx;
        }
        ex.ScanBody(fidx, i + 1, body_end - 1);
        BuildFunctionCfg(t.toks, ex.lines, fidx,
                         paren_tok < t.size() ? paren_tok : i + 1, i + 1,
                         body_end - 1, &ex.out);
      }
      i = body_end;
      head.clear();
      continue;
    }

    if (s == ";") {
      Extractor::ClassCtx* cc = current_class();
      if (cc != nullptr) {
        ex.ProcessMemberStatement(head, cc);
      } else {
        ex.ProcessNamespaceStatement(head);
      }
      head.clear();
      ++i;
      continue;
    }

    if (s == "}") {
      if (!scopes.empty()) {
        if (scopes.back().type == ScopeType::kClass) {
          ex.FinalizeClass(scopes.back().cls);
        }
        scopes.pop_back();
      }
      head.clear();
      ++i;
      continue;
    }

    head.push_back(i);
    ++i;
  }
  // Unterminated class at EOF (truncated file): still report what we saw.
  while (!scopes.empty()) {
    if (scopes.back().type == ScopeType::kClass) {
      ex.FinalizeClass(scopes.back().cls);
    }
    scopes.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Serialization (cache format; one escaped record per line).
// ---------------------------------------------------------------------------
void AppendEscaped(const std::string& s, std::string* out) {
  for (const char c : s) {
    if (c == '\\') out->append("\\\\");
    else if (c == '\t') out->append("\\t");
    else if (c == '\n') out->append("\\n");
    else out->push_back(c);
  }
}

[[nodiscard]] std::string Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      const char n = s[++i];
      out.push_back(n == 't' ? '\t' : n == 'n' ? '\n' : n);
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

void AppendRecord(std::string* out, std::initializer_list<std::string> cols) {
  bool first = true;
  for (const std::string& c : cols) {
    if (!first) out->push_back('\t');
    first = false;
    AppendEscaped(c, out);
  }
  out->push_back('\n');
}

[[nodiscard]] std::vector<std::string> SplitRecord(std::string_view line) {
  std::vector<std::string> cols;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    const bool end = i == line.size();
    // A field separator is an unescaped tab; escaped tabs are "\t" pairs.
    if (end || (line[i] == '\t')) {
      cols.push_back(Unescape(line.substr(start, i - start)));
      start = i + 1;
    } else if (line[i] == '\\') {
      ++i;
    }
  }
  return cols;
}

}  // namespace

bool IsTaintSourceCallee(std::string_view callee) {
  const NondetToken* n = FindNondet(callee);
  return n != nullptr && n->kind != Nondet::kRawClock;
}

std::uint64_t HashBytes(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

FileFacts ExtractFacts(const std::string& path, std::string_view source) {
  FileFacts facts;
  facts.path = path;

  const std::vector<Token> all = Lex(source);
  SView structural;
  structural.toks.reserve(all.size());
  for (const Token& tok : all) {
    if (tok.kind != TokKind::kComment && tok.kind != TokKind::kPreprocessor) {
      structural.toks.push_back(&tok);
    }
  }

  std::vector<std::string> lines;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= source.size(); ++i) {
      if (i == source.size() || source[i] == '\n') {
        lines.emplace_back(source.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  Extractor ex{structural, lines, facts, 0,
               std::vector<int>(structural.size(), -1)};
  WalkStructure(ex);
  ex.ScanPatterns();
  return facts;
}

void SerializeFacts(const FileFacts& f, std::string* out) {
  AppendRecord(out, {"P", f.path});
  for (const FunctionDef& d : f.functions) {
    AppendRecord(out, {"F", d.name, d.class_name, std::to_string(d.line),
                       d.ret_units, std::to_string(d.body_end_line),
                       d.line_text});
  }
  for (const CallSite& c : f.calls) {
    AppendRecord(out, {"C", std::to_string(c.func), c.callee,
                       std::to_string(c.line)});
  }
  for (const AllocSite& a : f.allocs) {
    AppendRecord(out, {"A", std::to_string(a.func),
                       std::to_string(static_cast<int>(a.kind)), a.detail,
                       std::to_string(a.line), a.line_text});
  }
  for (const UnguardedMember& m : f.unguarded) {
    AppendRecord(out, {"M", m.class_name, m.member, std::to_string(m.line),
                       m.line_text});
  }
  for (const FloatFold& x : f.float_folds) {
    AppendRecord(out, {"X", x.var, x.function, std::to_string(x.line),
                       x.line_text});
  }
  for (const PatternHit& w : f.pattern_hits) {
    AppendRecord(out, {"W", w.rule_id, w.detail, std::to_string(w.line),
                       w.line_text});
  }
  for (const ContainerDecl& n : f.containers) {
    AppendRecord(out, {"N", std::to_string(n.func), n.name,
                       std::string(1, n.shape), n.unordered ? "1" : "0",
                       n.pointer_key ? "1" : "0", std::to_string(n.line),
                       n.line_text});
  }
  for (const RangeLoop& o : f.loops) {
    std::string vars;
    for (const auto& v : o.vars) vars += (vars.empty() ? "" : ",") + v;
    AppendRecord(out, {"O", std::to_string(o.func), vars, o.container,
                       std::string(1, o.shape), o.member ? "1" : "0",
                       std::to_string(o.line), o.line_text});
  }
  for (const UnitDecl& u : f.unit_decls) {
    AppendRecord(out, {"U", std::to_string(u.func), u.var, u.dim,
                       std::to_string(u.line)});
  }
  for (const ParamDecl& p : f.params) {
    AppendRecord(out, {"R", std::to_string(p.func), std::to_string(p.index),
                       p.name, p.units});
  }
  for (const UnitBinop& b : f.binops) {
    AppendRecord(out, {"B", std::to_string(b.func), b.op, b.lhs, b.rhs,
                       std::to_string(b.line), b.line_text});
  }
  for (const UnitAssign& a : f.assigns) {
    AppendRecord(out, {"E", std::to_string(a.func), a.lhs, a.rhs,
                       std::to_string(a.line), a.line_text});
  }
  for (const CallArg& g : f.call_args) {
    AppendRecord(out, {"G", std::to_string(g.func), g.callee,
                       std::to_string(g.index), g.term,
                       std::to_string(g.line), g.line_text});
  }
  for (const ReturnFlow& r : f.returns) {
    AppendRecord(out, {"T", std::to_string(r.func), r.term,
                       std::to_string(r.line)});
  }
  for (const LockAcquire& l : f.lock_acquires) {
    AppendRecord(out, {"L", std::to_string(l.func), l.lock,
                       std::to_string(l.line),
                       std::to_string(l.scope_end_line), l.line_text});
  }
  for (const LockAnno& q : f.lock_annos) {
    AppendRecord(out, {"Q", std::to_string(q.func), q.kind, q.lock});
  }
  for (const FuncCfg& g : f.cfgs) {
    AppendRecord(out, {"H", std::to_string(g.func),
                       std::to_string(g.budget_exceeded ? 1 : 0)});
    for (std::size_t b = 0; b < g.blocks.size(); ++b) {
      const CfgBlock& blk = g.blocks[b];
      std::string succ;
      for (const int s : blk.succ) {
        if (!succ.empty()) succ.push_back(',');
        succ += std::to_string(s);
      }
      AppendRecord(out, {"K", std::to_string(blk.loop_depth),
                         std::to_string(blk.in_parallel ? 1 : 0),
                         std::to_string(blk.varying_guard), succ});
      for (const CfgEvent& e : blk.events) {
        AppendRecord(out, {"V", std::to_string(b),
                           std::to_string(static_cast<int>(e.kind)), e.a,
                           e.b, std::to_string(e.line), e.line_text});
      }
    }
  }
}

bool DeserializeFacts(std::string_view blob, FileFacts* f) {
  *f = FileFacts{};
  std::size_t start = 0;
  const auto to_int = [](const std::string& s, int* v) {
    char* end = nullptr;
    const long parsed = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0') return false;
    *v = static_cast<int>(parsed);
    return true;
  };
  while (start < blob.size()) {
    std::size_t nl = blob.find('\n', start);
    if (nl == std::string_view::npos) nl = blob.size();
    const std::string_view line = blob.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    const std::vector<std::string> c = SplitRecord(line);
    if (c.empty()) return false;
    if (c[0] == "P" && c.size() == 2) {
      f->path = c[1];
    } else if (c[0] == "F" && c.size() == 7) {
      FunctionDef d;
      d.name = c[1];
      d.class_name = c[2];
      if (!to_int(c[3], &d.line) || !to_int(c[5], &d.body_end_line)) {
        return false;
      }
      d.ret_units = c[4];
      d.line_text = c[6];
      f->functions.push_back(std::move(d));
    } else if (c[0] == "C" && c.size() == 4) {
      CallSite cs;
      if (!to_int(c[1], &cs.func) || !to_int(c[3], &cs.line)) return false;
      cs.callee = c[2];
      f->calls.push_back(std::move(cs));
    } else if (c[0] == "A" && c.size() == 6) {
      AllocSite a;
      int kind = 0;
      if (!to_int(c[1], &a.func) || !to_int(c[2], &kind) ||
          !to_int(c[4], &a.line)) {
        return false;
      }
      a.kind = static_cast<AllocKind>(kind);
      a.detail = c[3];
      a.line_text = c[5];
      f->allocs.push_back(std::move(a));
    } else if (c[0] == "M" && c.size() == 5) {
      UnguardedMember m;
      m.class_name = c[1];
      m.member = c[2];
      if (!to_int(c[3], &m.line)) return false;
      m.line_text = c[4];
      f->unguarded.push_back(std::move(m));
    } else if (c[0] == "X" && c.size() == 5) {
      FloatFold x;
      x.var = c[1];
      x.function = c[2];
      if (!to_int(c[3], &x.line)) return false;
      x.line_text = c[4];
      f->float_folds.push_back(std::move(x));
    } else if (c[0] == "W" && c.size() == 5) {
      PatternHit w;
      if (!to_int(c[3], &w.line)) return false;
      w.rule_id = c[1];
      w.detail = c[2];
      w.line_text = c[4];
      f->pattern_hits.push_back(std::move(w));
    } else if (c[0] == "N" && c.size() == 8 && c[3].size() == 1) {
      ContainerDecl n;
      if (!to_int(c[1], &n.func) || !to_int(c[6], &n.line)) return false;
      n.name = c[2];
      n.shape = c[3][0];
      n.unordered = c[4] == "1";
      n.pointer_key = c[5] == "1";
      n.line_text = c[7];
      f->containers.push_back(std::move(n));
    } else if (c[0] == "O" && c.size() == 8 && c[4].size() == 1) {
      RangeLoop o;
      if (!to_int(c[1], &o.func) || !to_int(c[6], &o.line)) return false;
      for (std::size_t at = 0; at < c[2].size();) {
        const std::size_t comma = std::min(c[2].find(',', at), c[2].size());
        o.vars.push_back(c[2].substr(at, comma - at));
        at = comma + 1;
      }
      o.container = c[3];
      o.shape = c[4][0];
      o.member = c[5] == "1";
      o.line_text = c[7];
      f->loops.push_back(std::move(o));
    } else if (c[0] == "U" && c.size() == 5) {
      UnitDecl u;
      if (!to_int(c[1], &u.func) || !to_int(c[4], &u.line)) return false;
      u.var = c[2];
      u.dim = c[3];
      f->unit_decls.push_back(std::move(u));
    } else if (c[0] == "R" && c.size() == 5) {
      ParamDecl p;
      if (!to_int(c[1], &p.func) || !to_int(c[2], &p.index)) return false;
      p.name = c[3];
      p.units = c[4];
      f->params.push_back(std::move(p));
    } else if (c[0] == "B" && c.size() == 7) {
      UnitBinop b;
      if (!to_int(c[1], &b.func) || !to_int(c[5], &b.line)) return false;
      b.op = c[2];
      b.lhs = c[3];
      b.rhs = c[4];
      b.line_text = c[6];
      f->binops.push_back(std::move(b));
    } else if (c[0] == "E" && c.size() == 6) {
      UnitAssign a;
      if (!to_int(c[1], &a.func) || !to_int(c[4], &a.line)) return false;
      a.lhs = c[2];
      a.rhs = c[3];
      a.line_text = c[5];
      f->assigns.push_back(std::move(a));
    } else if (c[0] == "G" && c.size() == 7) {
      CallArg g;
      if (!to_int(c[1], &g.func) || !to_int(c[3], &g.index) ||
          !to_int(c[5], &g.line)) {
        return false;
      }
      g.callee = c[2];
      g.term = c[4];
      g.line_text = c[6];
      f->call_args.push_back(std::move(g));
    } else if (c[0] == "T" && c.size() == 4) {
      ReturnFlow r;
      if (!to_int(c[1], &r.func) || !to_int(c[3], &r.line)) return false;
      r.term = c[2];
      f->returns.push_back(std::move(r));
    } else if (c[0] == "L" && c.size() == 6) {
      LockAcquire l;
      if (!to_int(c[1], &l.func) || !to_int(c[3], &l.line) ||
          !to_int(c[4], &l.scope_end_line)) {
        return false;
      }
      l.lock = c[2];
      l.line_text = c[5];
      f->lock_acquires.push_back(std::move(l));
    } else if (c[0] == "Q" && c.size() == 4) {
      LockAnno q;
      if (!to_int(c[1], &q.func)) return false;
      q.kind = c[2];
      q.lock = c[3];
      f->lock_annos.push_back(std::move(q));
    } else if (c[0] == "H" && c.size() == 3) {
      FuncCfg g;
      int exceeded = 0;
      if (!to_int(c[1], &g.func) || !to_int(c[2], &exceeded)) return false;
      g.budget_exceeded = exceeded != 0;
      f->cfgs.push_back(std::move(g));
    } else if (c[0] == "K" && c.size() == 5) {
      if (f->cfgs.empty()) return false;
      CfgBlock blk;
      int par = 0;
      if (!to_int(c[1], &blk.loop_depth) || !to_int(c[2], &par) ||
          !to_int(c[3], &blk.varying_guard)) {
        return false;
      }
      blk.in_parallel = par != 0;
      std::size_t pos = 0;
      const std::string& succ = c[4];
      while (pos < succ.size()) {
        std::size_t comma = succ.find(',', pos);
        if (comma == std::string::npos) comma = succ.size();
        int s = 0;
        if (!to_int(succ.substr(pos, comma - pos), &s)) return false;
        blk.succ.push_back(s);
        pos = comma + 1;
      }
      f->cfgs.back().blocks.push_back(std::move(blk));
    } else if (c[0] == "V" && c.size() == 7) {
      if (f->cfgs.empty()) return false;
      int block = 0;
      int kind = 0;
      CfgEvent e;
      if (!to_int(c[1], &block) || !to_int(c[2], &kind) ||
          !to_int(c[5], &e.line)) {
        return false;
      }
      std::vector<CfgBlock>& blocks = f->cfgs.back().blocks;
      if (block < 0 || block >= static_cast<int>(blocks.size())) return false;
      e.kind = static_cast<CfgEventKind>(kind);
      e.a = c[3];
      e.b = c[4];
      e.line_text = c[6];
      blocks[static_cast<std::size_t>(block)].events.push_back(std::move(e));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace gl::analyze
