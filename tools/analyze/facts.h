// Per-file fact extraction for gl_analyze (DESIGN.md §12).
//
// One pass over the token stream of a single translation unit produces a
// FileFacts record: everything the cross-file analysis needs, and nothing
// else. Facts are self-contained and serializable, which is what makes the
// mtime+hash incremental cache possible — a warm run deserializes facts
// instead of re-lexing, and only the (cheap) cross-file phase re-runs.
//
// Extracted facts:
//   * function definitions (bare name, enclosing/qualifying class, body
//     span) — free functions, methods defined inside class bodies, and
//     out-of-line Class::Method definitions all land in the index;
//   * call sites (caller function → callee name) — receiver types are not
//     resolved, so a call edge is an over-approximation by name, which is
//     the conservative direction for reachability rules;
//   * allocation sites inside function bodies (GL010 raw material): new
//     expressions, allocator calls, InducedSubgraph uses, and local owning
//     containers that are constructed with contents or grown;
//   * per-class member audits (GL008/GL011, resolved per file): classes
//     owning a mutex, and their mutable members lacking GL_GUARDED_BY;
//   * float accumulation into captured locals inside ParallelFor lambda
//     bodies (GL012, resolved per file);
//   * the determinism-contract token patterns that need no cross-file
//     context (GL002, GL003, GL005–GL009, resolved per file);
//   * order-sensitive container declarations and the loops over named
//     containers (GL001/GL004 findings and GL016 taint seeds, resolved
//     across files);
//   * dataflow raw material (DESIGN.md §13): GL_UNITS dimension
//     declarations, value flows (assignments, call arguments, returns),
//     unit-relevant binary operators and lock acquisition sites. The
//     dataflow engine (dataflow.h) joins these across files into
//     GL014/GL015/GL016 findings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/lexer.h"

namespace gl::analyze {

struct FunctionDef {
  std::string name;        // bare name ("Bisect", "Attach")
  std::string class_name;  // "FmEngine" for methods, "" for free functions
  int line = 0;
  std::string ret_units;   // GL_UNITS(...) after the signature, "" if none
  int body_end_line = 0;   // line of the closing '}' of the body
  std::string line_text;   // trimmed signature line (baseline fingerprint)
};

struct CallSite {
  int func = -1;       // index into FileFacts::functions (the caller)
  std::string callee;  // bare callee name
  int line = 0;
};

enum class AllocKind {
  kNew,             // new expression
  kAllocCall,       // make_unique / make_shared / malloc family
  kInducedSubgraph, // materializes a Graph copy (what PR 5 eliminated)
  kLocalInit,       // local owning container constructed with contents
  kLocalGrowth,     // growth call on a local owning container
};

struct AllocSite {
  int func = -1;  // index into FileFacts::functions
  AllocKind kind = AllocKind::kNew;
  std::string detail;  // token or "name.push_back" style description
  int line = 0;
  std::string line_text;  // trimmed source line (baseline fingerprint)
};

// A mutable member of a mutex-owning class with no GL_GUARDED_BY.
struct UnguardedMember {
  std::string class_name;
  std::string member;
  int line = 0;
  std::string line_text;
};

// Float accumulation into a captured enclosing-scope local inside a
// ParallelFor lambda.
struct FloatFold {
  std::string var;
  std::string function;  // enclosing function, for the message
  int line = 0;
  std::string line_text;
};

// A per-file determinism-contract hit (GL002, GL003, GL005–GL009; DESIGN.md
// §8/§9): a token pattern, namespace-scope statement or class audit that
// needs no cross-file context, so the extractor resolves it to its rule.
struct PatternHit {
  std::string rule_id;  // "GL002" ... "GL009"
  std::string detail;   // the offending token, name or member
  int line = 0;
  std::string line_text;
};

// A declaration whose type iterates in an order the language does not pin
// down: an unordered container, or any map/set keyed on a pointer. Every
// pointer-keyed one is a GL004 finding; the names feed the cross-file
// loop-order resolution behind GL001 and the GL016 taint seeds.
struct ContainerDecl {
  int func = -1;       // function whose body or signature declares it; -1
                       // for members, namespace scope and declarations
  std::string name;    // declared name; "" for an unnamed type use
  char shape = 'v';    // 'v' variable, 'f' function returning one,
                       // 'e' container of them (iterated as name[...])
  bool unordered = false;
  bool pointer_key = false;
  int line = 0;
  std::string line_text;
};

// A range-for, or an iterator for-loop (`for (auto it = c.begin(); ...`),
// over a named container. dataflow.h resolves the container against the
// ContainerDecl records of every file.
struct RangeLoop {
  int func = -1;
  // Loop variable terms ("v:x"), one per structured binding; empty when
  // the header declares none.
  std::vector<std::string> vars;
  std::string container;  // last name of the range expression
  char shape = 'v';       // 'v' name, 'e' name[...], 'f' name(...)
  bool member = false;    // reached through x.name / p->name: a member,
                          // never one of the function's locals
  int line = 0;
  std::string line_text;
};

// --- dataflow raw material (GL014 / GL015 / GL016) -------------------------
//
// Value flows reference *terms*, a compact encoding of the expressions the
// token scanner can track:
//   "v:name"  local variable or parameter in the enclosing function
//   "m:field" member access (x.field, x->field, this->field): last field;
//             "m:field^x" when the chain starts at the plain name x, whose
//             taint the member carries (GL016)
//   "c:name"  call expression (the callee's return value)
//   "k:"      literal constant (polymorphic: joins with anything)
//   "?:"      anything the scanner cannot track (excluded from checks)

// A declared dimension: GL_UNITS(dim) on a local / member, or an int-family
// local auto-seeded as "count".
struct UnitDecl {
  int func = -1;      // index into functions; -1 for class members
  std::string var;    // local name, or "Class::field" for members
  std::string dim;    // "watts", "cores", ... (see dataflow.h Dim)
  int line = 0;
};

// One declared parameter (annotated or not — names are needed to bind call
// arguments interprocedurally).
struct ParamDecl {
  int func = -1;
  int index = 0;
  std::string name;
  std::string units;  // "" when unannotated
};

// A '+', '-', or comparison whose operand terms the scanner could parse.
struct UnitBinop {
  int func = -1;
  std::string op;
  std::string lhs;  // term encoding
  std::string rhs;
  int line = 0;
  std::string line_text;
};

// Value flow rhs -> lhs ('=', one record per additive rhs operand).
struct UnitAssign {
  int func = -1;
  std::string lhs;
  std::string rhs;
  int line = 0;
  std::string line_text;
};

// One trackable argument term at a call site (units param binding + taint
// sink checks).
struct CallArg {
  int func = -1;
  std::string callee;  // bare name, or "Counter::Add" for typed receivers
  int index = 0;       // argument position
  std::string term;
  int line = 0;
  std::string line_text;
};

// A trackable term flowing out through `return`.
struct ReturnFlow {
  int func = -1;
  std::string term;
  int line = 0;
};

// --- control-flow raw material (GL017–GL021, cfg.h) ------------------------
//
// The extractor builds one basic-block CFG per function body (cfg.cc) and
// stores it with the facts, so warm runs replay cached CFGs instead of
// re-lexing. Blocks carry the path-relevant events in statement order;
// edges point at successor block ids, with -1 meaning "function exit".

enum class CfgEventKind {
  kLock = 0,     // manual base.Lock(); a = lock name
  kUnlock,       // manual base.Unlock(); a = lock name
  kBind,         // a = variable bound to a ref/index/view; b = source chain
  kInvalidate,   // a = object chain whose derived refs die; b = the call
  kUse,          // a = use of a previously bound variable
  kNarrow,       // a = 64-bit term cast to 32 bits; b = the target type
  kCheck,        // a = term a dominating comparison bounds on this path
  kAlloc,        // allocation (GL019 raw material); a = detail, b = kind
  kSink,         // a = deterministic-state sink call (MixU64, Counter::Add)
};

struct CfgEvent {
  CfgEventKind kind = CfgEventKind::kUse;
  std::string a;
  std::string b;
  int line = 0;
  std::string line_text;
};

struct CfgBlock {
  std::vector<int> succ;          // successor block ids; -1 = function exit
  std::vector<CfgEvent> events;   // in statement order
  int loop_depth = 0;             // number of enclosing loops
  bool in_parallel = false;       // inside a ParallelFor lambda body
  int varying_guard = 0;          // line of the innermost thread-varying
                                  // branch guarding this block (0 = none)
};

struct FuncCfg {
  int func = -1;                  // index into FileFacts::functions
  std::vector<CfgBlock> blocks;   // block 0 = entry
  bool budget_exceeded = false;   // builder bailed; path rules skip this fn
};

// A lock acquisition: gl::MutexLock RAII site or an explicit .Lock() call.
struct LockAcquire {
  int func = -1;
  std::string lock;       // identifier the guard was built from ("mu_")
  int line = 0;
  int scope_end_line = 0; // last line the lock is provably held
  std::string line_text;
};

// GL_ACQUIRE / GL_REQUIRES on a function signature.
struct LockAnno {
  int func = -1;
  std::string kind;  // "acquire" | "requires"
  std::string lock;
};

struct FileFacts {
  std::string path;
  std::vector<FunctionDef> functions;
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
  std::vector<UnguardedMember> unguarded;
  std::vector<FloatFold> float_folds;
  std::vector<PatternHit> pattern_hits;
  std::vector<ContainerDecl> containers;
  std::vector<RangeLoop> loops;
  std::vector<UnitDecl> unit_decls;
  std::vector<ParamDecl> params;
  std::vector<UnitBinop> binops;
  std::vector<UnitAssign> assigns;
  std::vector<CallArg> call_args;
  std::vector<ReturnFlow> returns;
  std::vector<LockAcquire> lock_acquires;
  std::vector<LockAnno> lock_annos;
  std::vector<FuncCfg> cfgs;
};

// True for a callee whose return value is nondeterministic across runs: an
// RNG, a wall-clock or timer read, or a sanctioned obs/clock.h reader. One
// table (facts.cc) serves the pattern rules, which report the raw sources
// (GL002 ad-hoc RNG, GL003 wall-clock and timer values, GL009 raw
// std::chrono clocks), and the flow rules, which treat calls to them as
// taint sources (GL016) and thread-varying branch conditions (GL021).
[[nodiscard]] bool IsTaintSourceCallee(std::string_view callee);

// Lexes + extracts in one go. `path` is recorded verbatim.
[[nodiscard]] FileFacts ExtractFacts(const std::string& path,
                                     std::string_view source);

// Cache serialization: one line per record, tab-separated, text fields
// escaped (\t, \n, \\). Deserialize returns false on any malformed line —
// the caller falls back to re-extraction.
void SerializeFacts(const FileFacts& facts, std::string* out);
[[nodiscard]] bool DeserializeFacts(std::string_view blob, FileFacts* facts);

// FNV-1a over file bytes, the cache's content fingerprint.
[[nodiscard]] std::uint64_t HashBytes(std::string_view bytes);

}  // namespace gl::analyze
