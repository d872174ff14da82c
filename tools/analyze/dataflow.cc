#include "analyze/dataflow.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "analyze/analysis.h"

namespace gl::analyze {

// --- symbol index ----------------------------------------------------------

SymbolIndex::SymbolIndex(const std::vector<FileFacts>& files)
    : files_(&files) {
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    const FileFacts& f = files[static_cast<std::size_t>(fi)];
    for (int gi = 0; gi < static_cast<int>(f.functions.size()); ++gi) {
      const FunctionDef& d = f.functions[static_cast<std::size_t>(gi)];
      by_name_[d.name].push_back({fi, gi});
      by_file_name_[std::to_string(fi) + "/" + d.name].push_back({fi, gi});
      if (!d.class_name.empty()) {
        by_class_[d.class_name].push_back({fi, gi});
        by_class_method_[d.class_name + "::" + d.name].push_back({fi, gi});
      }
    }
  }
}

const FunctionDef& SymbolIndex::Def(const FuncRef& r) const {
  return (*files_)[static_cast<std::size_t>(r.file)]
      .functions[static_cast<std::size_t>(r.func)];
}

std::string SymbolIndex::Display(const FuncRef& r) const {
  const FunctionDef& d = Def(r);
  return d.class_name.empty() ? d.name : d.class_name + "::" + d.name;
}

const std::vector<FuncRef>* SymbolIndex::ByName(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it != by_name_.end() ? &it->second : nullptr;
}

const std::vector<FuncRef>* SymbolIndex::ByClass(const std::string& cls) const {
  const auto it = by_class_.find(cls);
  return it != by_class_.end() ? &it->second : nullptr;
}

const std::vector<FuncRef>* SymbolIndex::Resolve(
    const FuncRef& caller, const std::string& callee) const {
  const FunctionDef& d = Def(caller);
  if (!d.class_name.empty()) {
    const auto it = by_class_method_.find(d.class_name + "::" + callee);
    if (it != by_class_method_.end()) return &it->second;
  }
  const auto fit =
      by_file_name_.find(std::to_string(caller.file) + "/" + callee);
  if (fit != by_file_name_.end()) return &fit->second;
  const auto it = by_name_.find(callee);
  return it != by_name_.end() ? &it->second : nullptr;
}

// --- dimension lattice -----------------------------------------------------

Dim DimFromString(const std::string& s) {
  if (s == "cores") return Dim::kCores;
  if (s == "bytes") return Dim::kBytes;
  if (s == "bits_per_sec") return Dim::kBitsPerSec;
  if (s == "watts") return Dim::kWatts;
  if (s == "ms") return Dim::kMs;
  if (s == "epochs") return Dim::kEpochs;
  if (s == "count") return Dim::kCount;
  if (s == "dimensionless") return Dim::kDimensionless;
  return Dim::kUnknown;
}

const char* DimName(Dim d) {
  switch (d) {
    case Dim::kUnknown: return "unknown";
    case Dim::kCores: return "cores";
    case Dim::kBytes: return "bytes";
    case Dim::kBitsPerSec: return "bits_per_sec";
    case Dim::kWatts: return "watts";
    case Dim::kMs: return "ms";
    case Dim::kEpochs: return "epochs";
    case Dim::kCount: return "count";
    case Dim::kDimensionless: return "dimensionless";
    case Dim::kConflict: return "conflict";
  }
  return "unknown";
}

namespace {

constexpr char kRuleUnits[] = "GL014";
constexpr char kRuleLocks[] = "GL015";
constexpr char kRuleTaint[] = "GL016";

// Callees whose return value keeps its argument's dimension and taint.
const std::unordered_set<std::string_view> kPassthroughCallees = {
    "max", "min", "clamp", "abs", "fabs", "floor", "ceil", "round",
    "move", "nextafter"};

// Callees that feed the determinism contract (DESIGN.md §8): state-hash
// mixers and deterministic decision counters.
const std::unordered_set<std::string_view> kTaintSinkCallees = {
    "MixU64", "MixI64", "MixI32", "MixDouble", "MixResource", "MixId",
    "HashAssignment", "HashLoads", "Counter::Add"};

// gl:: synchronization infrastructure: their internal Lock/Unlock bodies
// and annotations would otherwise put one hub node in every lock graph.
const std::unordered_set<std::string_view> kLockInfraClasses = {
    "Mutex", "MutexLock", "CondVar"};

// Callees that return an element/item count regardless of receiver.
[[nodiscard]] bool IsCountCallee(const std::string& name) {
  static const std::unordered_set<std::string_view> kNames = {
      "size", "length", "capacity", "count", "use_count", "distance"};
  return kNames.count(name) > 0 || name.starts_with("num_");
}

struct Val {
  Dim dim = Dim::kUnknown;
  bool tainted = false;
  std::string origin;  // first (lexicographically) taint origin label
};

// Lattice join; returns true when *into changed.
bool Join(Val* into, const Val& from) {
  bool changed = false;
  if (from.dim != Dim::kUnknown && from.dim != into->dim) {
    if (into->dim == Dim::kUnknown) {
      into->dim = from.dim;
      changed = true;
    } else if (into->dim != Dim::kConflict) {
      into->dim = Dim::kConflict;
      changed = true;
    }
  }
  if (from.tainted && !into->tainted) {
    into->tainted = true;
    changed = true;
  }
  if (from.tainted && !from.origin.empty() &&
      (into->origin.empty() || from.origin < into->origin)) {
    into->origin = from.origin;
    changed = true;
  }
  return changed;
}

[[nodiscard]] bool IsTracked(const std::string& term) {
  return term.size() >= 2 && (term[0] == 'v' || term[0] == 'm' ||
                              term[0] == 'c') && term[1] == ':';
}

// The term's name, without a member term's "^root" suffix.
[[nodiscard]] std::string TermName(const std::string& term) {
  if (term.size() <= 2) return term;
  const std::size_t root =
      term.starts_with("m:") ? term.find('^') : std::string::npos;
  return root == std::string::npos ? term.substr(2) : term.substr(2, root - 2);
}

// The local a member term's chain starts from ("m:second^kv" → "v:kv"),
// or "" for any other term.
[[nodiscard]] std::string RootOf(const std::string& term) {
  const std::size_t at =
      term.starts_with("m:") ? term.find('^') : std::string::npos;
  return at == std::string::npos ? "" : "v:" + term.substr(at + 1);
}

// Call terms are "c:callee@line"; the bare callee name, for display and for
// matching against the passthrough/source/count name sets.
[[nodiscard]] std::string CalleeOf(const std::string& term) {
  std::string name = TermName(term);
  const std::size_t at = name.rfind('@');
  return at == std::string::npos ? name : name.substr(0, at);
}

struct Engine {
  const std::vector<FileFacts>& files;
  const SymbolIndex& index;
  const LoopOrders& loop_orders;

  // Declared member dims: "Class::field" -> dim, plus field -> classes.
  std::map<std::string, Dim> member_dims;
  std::map<std::string, std::vector<std::string>> member_classes;

  // Known local/param names per function, from ParamDecl and UnitDecl facts.
  // Bare identifiers in a method body that are NOT known locals resolve to
  // the enclosing class's member node when that field has a declared dim
  // (members are usually accessed without this->, so they lex as "v:" terms).
  std::map<std::pair<int, int>, std::set<std::string>> local_names;

  std::map<std::string, Val> vals;          // node key -> lattice value
  std::set<std::string> declared;           // nodes with a declared dim
  // GL_UNITS(any): deliberately dimension-erased nodes (polymorphic helpers
  // like WithinCap or an EWMA over arbitrary series). Incoming dimensions
  // are dropped instead of joined — the node never conflicts and never
  // resolves — while taint still flows through it.
  std::set<std::string> poly;
  std::set<std::pair<std::string, std::string>> edges;  // src -> dst
  std::set<std::pair<std::string, std::string>> taint_edges;  // taint only

  [[nodiscard]] static std::string LocalKey(int file, int func,
                                            const std::string& name) {
    return "L|" + std::to_string(file) + "|" + std::to_string(func) + "|" +
           name;
  }
  [[nodiscard]] static std::string RetKey(const FuncRef& r) {
    return "R|" + std::to_string(r.file) + "|" + std::to_string(r.func);
  }
  [[nodiscard]] static std::string CallKey(int file, int func,
                                           const std::string& callee) {
    return "C|" + std::to_string(file) + "|" + std::to_string(func) + "|" +
           callee;
  }

  // Maps a term in (file, func) context to its node key; "" = untracked.
  [[nodiscard]] std::string NodeOf(int file, int func,
                                   const std::string& term) const {
    if (!IsTracked(term)) return "";
    const std::string name = TermName(term);
    const FunctionDef& d =
        files[static_cast<std::size_t>(file)]
            .functions[static_cast<std::size_t>(func)];
    if (term[0] == 'v') {
      const auto ln = local_names.find({file, func});
      const bool is_local = ln != local_names.end() && ln->second.count(name);
      if (!is_local && !d.class_name.empty() &&
          member_dims.count(d.class_name + "::" + name)) {
        return "M|" + d.class_name + "::" + name;
      }
      return LocalKey(file, func, name);
    }
    if (term[0] == 'c') return CallKey(file, func, name);
    // Member access: prefer the enclosing class's declared field, then a
    // uniquely declared field of that name, then the global field node.
    if (!d.class_name.empty() &&
        member_dims.count(d.class_name + "::" + name)) {
      return "M|" + d.class_name + "::" + name;
    }
    const auto it = member_classes.find(name);
    if (it != member_classes.end() && it->second.size() == 1) {
      return "M|" + it->second[0] + "::" + name;
    }
    return "M|" + name;
  }

  void SeedDim(const std::string& node, Dim dim) {
    if (node.empty() || dim == Dim::kUnknown) return;
    Join(&vals[node], Val{dim, false, ""});
    declared.insert(node);
  }

  void Build() {
    // Local-name sets first: NodeOf consults them to tell apart locals and
    // bare (this-less) member accesses.
    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      for (const ParamDecl& p : f.params) {
        local_names[{fi, p.func}].insert(p.name);
      }
      for (const UnitDecl& u : f.unit_decls) {
        if (u.func >= 0) local_names[{fi, u.func}].insert(u.var);
      }
    }
    // Member declarations next: term resolution consults them.
    for (const FileFacts& f : files) {
      for (const UnitDecl& u : f.unit_decls) {
        if (u.func >= 0) continue;
        const std::size_t sep = u.var.find("::");
        if (sep == std::string::npos) continue;
        member_dims[u.var] = DimFromString(u.dim);
        if (u.dim == "any") poly.insert("M|" + u.var);
        member_classes[u.var.substr(sep + 2)].push_back(u.var.substr(0, sep));
      }
    }
    for (auto& [field, classes] : member_classes) {
      std::sort(classes.begin(), classes.end());
      classes.erase(std::unique(classes.begin(), classes.end()),
                    classes.end());
    }
    for (const auto& [qual, dim] : member_dims) SeedDim("M|" + qual, dim);
    // A field declared by several classes still seeds the global node when
    // every declaration agrees (m: terms outside any class fall back to it).
    for (const auto& [field, classes] : member_classes) {
      Dim agreed = Dim::kUnknown;
      bool ok = true;
      for (const std::string& cls : classes) {
        const Dim d = member_dims.at(cls + "::" + field);
        if (agreed != Dim::kUnknown && d != agreed) ok = false;
        agreed = d;
      }
      if (ok && agreed != Dim::kUnknown) SeedDim("M|" + field, agreed);
    }
    // Resource field names carry their dimension wherever they appear.
    SeedDim("M|cpu", Dim::kCores);
    SeedDim("M|mem_gb", Dim::kBytes);
    SeedDim("M|net_mbps", Dim::kBitsPerSec);

    // Count-returning callees (size(), num_*(), ...) type their call terms.
    const auto seed_count_call = [this](int fi, int func,
                                        const std::string& term) {
      if (term.size() > 2 && term[0] == 'c' &&
          IsCountCallee(CalleeOf(term))) {
        SeedDim(CallKey(fi, func, term.substr(2)), Dim::kCount);
      }
    };
    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      for (const UnitBinop& b : f.binops) {
        seed_count_call(fi, b.func, b.lhs);
        seed_count_call(fi, b.func, b.rhs);
      }
      for (const UnitAssign& a : f.assigns) {
        seed_count_call(fi, a.func, a.lhs);
        seed_count_call(fi, a.func, a.rhs);
      }
      for (const CallArg& g : f.call_args) seed_count_call(fi, g.func, g.term);
      for (const ReturnFlow& r : f.returns) seed_count_call(fi, r.func, r.term);
    }

    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      for (const UnitDecl& u : f.unit_decls) {
        if (u.func < 0) continue;
        if (u.dim == "any") poly.insert(LocalKey(fi, u.func, u.var));
        else SeedDim(LocalKey(fi, u.func, u.var), DimFromString(u.dim));
      }
      for (const ParamDecl& p : f.params) {
        if (p.units.empty()) continue;
        if (p.units == "any") poly.insert(LocalKey(fi, p.func, p.name));
        else SeedDim(LocalKey(fi, p.func, p.name), DimFromString(p.units));
      }
      for (int gi = 0; gi < static_cast<int>(f.functions.size()); ++gi) {
        const FunctionDef& d = f.functions[static_cast<std::size_t>(gi)];
        if (d.ret_units.empty()) continue;
        if (d.ret_units == "any") poly.insert(RetKey({fi, gi}));
        else SeedDim(RetKey({fi, gi}), DimFromString(d.ret_units));
      }
      // Loop variables of loops over order-sensitive containers.
      const std::vector<std::string_view>& orders =
          loop_orders[static_cast<std::size_t>(fi)];
      for (std::size_t li = 0; li < f.loops.size(); ++li) {
        const RangeLoop& loop = f.loops[li];
        if (orders[li].empty()) continue;
        for (const std::string& var : loop.vars) {
          const std::string node = NodeOf(fi, loop.func, var);
          if (node.empty()) continue;
          Join(&vals[node], Val{Dim::kUnknown, true,
                                std::string(orders[li]) + " at " + f.path +
                                    ":" + std::to_string(loop.line)});
        }
      }

      // Flow edges. A member term also draws taint (never a dimension)
      // from the local its chain starts at: `kv.second` carries `kv`'s.
      const auto flow = [&](int func, const std::string& term,
                            const std::string& dst) {
        AddEdge(NodeOf(fi, func, term), dst);
        const std::string root = RootOf(term);
        if (!root.empty()) AddTaintEdge(NodeOf(fi, func, root), dst);
      };
      for (const UnitAssign& a : f.assigns) {
        flow(a.func, a.rhs, NodeOf(fi, a.func, a.lhs));
      }
      for (const ReturnFlow& r : f.returns) {
        flow(r.func, r.term, RetKey({fi, r.func}));
      }
      for (const CallArg& g : f.call_args) {
        if (NodeOf(fi, g.func, g.term).empty()) continue;
        if (kPassthroughCallees.count(g.callee)) {
          flow(g.func, g.term,
               CallKey(fi, g.func, g.callee + "@" + std::to_string(g.line)));
          continue;
        }
        const std::vector<FuncRef>* targets =
            index.Resolve({fi, g.func}, g.callee);
        if (targets == nullptr) continue;
        for (const FuncRef& tgt : *targets) {
          const FileFacts& tf = files[static_cast<std::size_t>(tgt.file)];
          for (const ParamDecl& p : tf.params) {
            if (p.func == tgt.func && p.index == g.index) {
              flow(g.func, g.term, LocalKey(tgt.file, tgt.func, p.name));
            }
          }
        }
      }
      for (const CallSite& c : f.calls) {
        if (c.func < 0) continue;
        const std::string key = CallKey(
            fi, c.func, c.callee + "@" + std::to_string(c.line));
        if (IsTaintSourceCallee(c.callee)) {
          Join(&vals[key],
               Val{Dim::kUnknown, true,
                   c.callee + "() at " + f.path + ":" +
                       std::to_string(c.line)});
          continue;
        }
        const std::vector<FuncRef>* targets =
            index.Resolve({fi, c.func}, c.callee);
        if (targets == nullptr) continue;
        for (const FuncRef& tgt : *targets) {
          AddEdge(RetKey(tgt), key);
        }
      }
    }
  }

  void AddEdge(const std::string& src, const std::string& dst) {
    if (src.empty() || dst.empty() || src == dst) return;
    edges.insert({src, dst});
  }
  void AddTaintEdge(const std::string& src, const std::string& dst) {
    if (src.empty() || dst.empty() || src == dst) return;
    taint_edges.insert({src, dst});
  }

  void Fixpoint() {
    // The edge set is sorted (std::set), so propagation order — and with it
    // every tie-break in the join — is deterministic.
    for (int pass = 0; pass < 64; ++pass) {
      bool changed = false;
      for (const auto& [src, dst] : edges) {
        const auto it = vals.find(src);
        if (it == vals.end()) continue;
        Val v = it->second;  // copy: vals[dst] may rehash
        // Dimension-erased target: taint flows through, dimensions do not.
        if (poly.count(dst)) v.dim = Dim::kUnknown;
        if (Join(&vals[dst], v)) changed = true;
      }
      for (const auto& [src, dst] : taint_edges) {
        const auto it = vals.find(src);
        if (it == vals.end() || !it->second.tainted) continue;
        Val v = it->second;
        v.dim = Dim::kUnknown;
        if (Join(&vals[dst], v)) changed = true;
      }
      if (!changed) return;
    }
  }

  [[nodiscard]] Val ValueOf(const std::string& node) const {
    const auto it = vals.find(node);
    return it != vals.end() ? it->second : Val{};
  }

  [[nodiscard]] static bool Concrete(Dim d) {
    return d != Dim::kUnknown && d != Dim::kConflict;
  }

  void Check(std::vector<Finding>* out, UnitsReport* units) const {
    std::set<std::pair<std::string, int>> binop_hits;  // (path, line)

    std::map<std::string, UnitsReport::FileEntry> report;

    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      UnitsReport::FileEntry* entry = nullptr;
      if (units != nullptr) {
        entry = &report[f.path];
        entry->path = f.path;
      }

      // GL014: mixed-dimension binary operators.
      for (const UnitBinop& b : f.binops) {
        const std::string ln = NodeOf(fi, b.func, b.lhs);
        const std::string rn = NodeOf(fi, b.func, b.rhs);
        const Dim ld = ln.empty() ? Dim::kUnknown : ValueOf(ln).dim;
        const Dim rd = rn.empty() ? Dim::kUnknown : ValueOf(rn).dim;
        if (entry != nullptr) {
          for (const auto& [term, node, dim] :
               {std::tuple(b.lhs, ln, ld), std::tuple(b.rhs, rn, rd)}) {
            if (node.empty()) continue;  // literal / untracked operand
            if (Concrete(dim) || poly.count(node)) {
              ++entry->resolved_ops;
            } else {
              ++entry->unresolved_ops;
              entry->notes.push_back(
                  f.path + ":" + std::to_string(b.line) + ": operand '" +
                  CalleeOf(term) + "' of '" + b.op + "' has " +
                  (dim == Dim::kConflict ? "conflicting" : "no inferred") +
                  " dimension");
            }
          }
        }
        if (!Concrete(ld) || !Concrete(rd) || ld == rd) continue;
        Finding fd;
        fd.rule_id = kRuleUnits;
        fd.rule_name = "unit-confusion";
        fd.path = f.path;
        fd.line = b.line;
        fd.line_text = b.line_text;
        fd.message = "operands of '" + b.op + "' mix dimensions: '" +
                     CalleeOf(b.lhs) + "' is " + DimName(ld) + ", '" +
                     CalleeOf(b.rhs) + "' is " + DimName(rd);
        binop_hits.insert({f.path, b.line});
        out->push_back(std::move(fd));
      }

      // GL014: assignments that change a declared dimension.
      for (const UnitAssign& a : f.assigns) {
        const std::string ln = NodeOf(fi, a.func, a.lhs);
        if (ln.empty() || !declared.count(ln)) continue;
        if (binop_hits.count({f.path, a.line})) continue;  // += already hit
        const std::string rn = NodeOf(fi, a.func, a.rhs);
        if (rn.empty()) continue;
        const Dim ld = ValueOf(ln).dim;
        const Dim rd = ValueOf(rn).dim;
        if (!Concrete(ld) || !Concrete(rd) || ld == rd) continue;
        Finding fd;
        fd.rule_id = kRuleUnits;
        fd.rule_name = "unit-confusion";
        fd.path = f.path;
        fd.line = a.line;
        fd.line_text = a.line_text;
        fd.message = "assignment changes dimension: '" + CalleeOf(a.lhs) +
                     "' is declared " + DimName(ld) + " but '" +
                     CalleeOf(a.rhs) + "' is " + DimName(rd);
        out->push_back(std::move(fd));
      }

      // GL014: call arguments bound to params with a declared dimension.
      // GL016: tainted terms reaching determinism sinks.
      for (const CallArg& g : f.call_args) {
        const std::string an = NodeOf(fi, g.func, g.term);
        if (an.empty()) continue;
        const Val av = ValueOf(an);
        const std::string root = RootOf(g.term);
        const Val tv = av.tainted || root.empty()
                           ? av
                           : ValueOf(NodeOf(fi, g.func, root));
        if (kTaintSinkCallees.count(g.callee) && tv.tainted) {
          Finding fd;
          fd.rule_id = kRuleTaint;
          fd.rule_name = "determinism-taint";
          fd.path = f.path;
          fd.line = g.line;
          fd.line_text = g.line_text;
          fd.message =
              "'" + CalleeOf(g.term) + "' reaches determinism sink '" +
              g.callee + "' but carries nondeterministic data (" +
              (tv.origin.empty() ? std::string("unknown origin")
                                 : tv.origin) +
              "); hash only kDeterministic state (DESIGN.md §8)";
          out->push_back(std::move(fd));
        }
        if (!Concrete(av.dim) || kPassthroughCallees.count(g.callee)) {
          continue;
        }
        const std::vector<FuncRef>* targets =
            index.Resolve({fi, g.func}, g.callee);
        if (targets == nullptr) continue;
        for (const FuncRef& tgt : *targets) {
          const FileFacts& tf = files[static_cast<std::size_t>(tgt.file)];
          for (const ParamDecl& p : tf.params) {
            if (p.func != tgt.func || p.index != g.index ||
                p.units.empty()) {
              continue;
            }
            const Dim pd = DimFromString(p.units);
            if (!Concrete(pd) || pd == av.dim) continue;
            Finding fd;
            fd.rule_id = kRuleUnits;
            fd.rule_name = "unit-confusion";
            fd.path = f.path;
            fd.line = g.line;
            fd.line_text = g.line_text;
            fd.message = "argument " + std::to_string(g.index + 1) +
                         " of '" + index.Display(tgt) + "' binds '" +
                         CalleeOf(g.term) + "' (" + DimName(av.dim) +
                         ") to parameter '" + p.name + "' declared " +
                         DimName(pd);
            out->push_back(std::move(fd));
          }
        }
      }
    }

    if (units != nullptr) {
      for (auto& [path, entry] : report) {
        units->files.push_back(std::move(entry));
      }
    }
  }
};

}  // namespace

// --- GL015: lock-order analysis --------------------------------------------

namespace {

struct LockSite {
  std::string lock;  // qualified name ("Pool::mu_")
  int line = 0;
  int scope_end = 0;
  std::string line_text;
};

struct LockGraph {
  // Edge A -> B: "B acquired while A is held", with human evidence and the
  // site (for the finding's location and baseline fingerprint).
  struct Edge {
    std::string to;
    std::string evidence;
    std::string path;
    int line = 0;
    std::string line_text;
  };
  std::map<std::string, std::vector<Edge>> adj;

  void Add(const std::string& from, Edge e) {
    auto& v = adj[from];
    for (const Edge& existing : v) {
      if (existing.to == e.to) return;  // first evidence wins (deterministic)
    }
    v.push_back(std::move(e));
  }
};

[[nodiscard]] std::string QualifyLock(const FunctionDef& d,
                                      const std::string& lock) {
  if (d.class_name.empty() || lock.find("::") != std::string::npos) {
    return lock;
  }
  // Locals shadow members only if they were declared in the body; the
  // token scanner cannot tell, so member qualification (the common case
  // for `mu_`-style names) wins.
  return d.class_name + "::" + lock;
}

void AnalyzeLockOrder(const std::vector<FileFacts>& files,
                      const SymbolIndex& index, std::vector<Finding>* out) {
  // Direct per-function acquisitions (sites + GL_ACQUIRE annotations).
  std::map<FuncRef, std::vector<LockSite>> direct;
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    const FileFacts& f = files[static_cast<std::size_t>(fi)];
    for (const LockAcquire& l : f.lock_acquires) {
      if (l.func < 0) continue;
      const FunctionDef& d = f.functions[static_cast<std::size_t>(l.func)];
      if (kLockInfraClasses.count(d.class_name)) continue;
      direct[{fi, l.func}].push_back({QualifyLock(d, l.lock), l.line,
                                      l.scope_end_line, l.line_text});
    }
    for (const LockAnno& q : f.lock_annos) {
      if (q.func < 0 || q.kind != "acquire") continue;
      const FunctionDef& d = f.functions[static_cast<std::size_t>(q.func)];
      if (kLockInfraClasses.count(d.class_name)) continue;
      direct[{fi, q.func}].push_back(
          {QualifyLock(d, q.lock), d.line, d.body_end_line, ""});
    }
  }

  // Acquired-lockset closure over the call graph, with one witness chain
  // per (function, lock).
  std::unordered_map<FuncRef, std::map<std::string, std::string>, FuncRefHash>
      closure;
  for (const auto& [ref, sites] : direct) {
    const FileFacts& f = files[static_cast<std::size_t>(ref.file)];
    for (const LockSite& s : sites) {
      auto& slot = closure[ref][s.lock];
      const std::string wit = index.Display(ref) + " acquires " + s.lock +
                              " (" + f.path + ":" + std::to_string(s.line) +
                              ")";
      if (slot.empty() || wit < slot) slot = wit;
    }
  }
  for (int pass = 0; pass < 64; ++pass) {
    bool changed = false;
    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      for (const CallSite& c : f.calls) {
        if (c.func < 0) continue;
        const FuncRef caller{fi, c.func};
        if (kLockInfraClasses.count(
                f.functions[static_cast<std::size_t>(c.func)].class_name)) {
          continue;
        }
        const std::vector<FuncRef>* targets = index.Resolve(caller, c.callee);
        if (targets == nullptr) continue;
        for (const FuncRef& tgt : *targets) {
          const auto cit = closure.find(tgt);
          if (cit == closure.end()) continue;
          for (const auto& [lock, wit] : cit->second) {
            auto& slot = closure[caller][lock];
            const std::string via = index.Display(caller) + " calls (" +
                                    f.path + ":" + std::to_string(c.line) +
                                    ") -> " + wit;
            if (slot.empty()) {
              slot = via;
              changed = true;
            }
          }
        }
      }
    }
    if (!changed) break;
  }

  // Lock-order graph.
  LockGraph graph;
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    const FileFacts& f = files[static_cast<std::size_t>(fi)];
    for (const auto& [ref, sites] : direct) {
      if (ref.file != fi) continue;
      const std::string fn = index.Display(ref);
      for (const LockSite& a : sites) {
        // (a) another acquisition inside a's scope.
        for (const LockSite& b : sites) {
          if (&a == &b || b.line < a.line || b.line > a.scope_end) continue;
          if (b.lock == a.lock) {
            if (b.line > a.line) {
              Finding fd;
              fd.rule_id = kRuleLocks;
              fd.rule_name = "lock-order-cycle";
              fd.path = f.path;
              fd.line = b.line;
              fd.line_text = b.line_text;
              fd.message = "'" + fn + "' re-acquires non-recursive lock " +
                           a.lock + " already held since line " +
                           std::to_string(a.line) + " (self-deadlock)";
              out->push_back(std::move(fd));
            }
            continue;
          }
          graph.Add(a.lock,
                    {b.lock,
                     fn + " holds " + a.lock + " (" + f.path + ":" +
                         std::to_string(a.line) + "), acquires " + b.lock +
                         " (" + f.path + ":" + std::to_string(b.line) + ")",
                     f.path, b.line, b.line_text});
        }
        // (b) calls made while a is held pull in the callee's lockset.
        for (const CallSite& c : f.calls) {
          if (c.func != ref.func || c.line < a.line || c.line > a.scope_end) {
            continue;
          }
          const std::vector<FuncRef>* targets = index.Resolve(ref, c.callee);
          if (targets == nullptr) continue;
          for (const FuncRef& tgt : *targets) {
            const auto cit = closure.find(tgt);
            if (cit == closure.end()) continue;
            for (const auto& [lock, wit] : cit->second) {
              if (lock == a.lock) continue;
              graph.Add(a.lock,
                        {lock,
                         fn + " holds " + a.lock + " (" + f.path + ":" +
                             std::to_string(a.line) + "), then " + wit,
                         f.path, a.line, a.line_text});
            }
          }
        }
      }
    }
    // (c) GL_REQUIRES: every acquisition in the function (and its callees)
    // is ordered after the required lock.
    for (const LockAnno& q : f.lock_annos) {
      if (q.func < 0 || q.kind != "requires") continue;
      const FunctionDef& d = f.functions[static_cast<std::size_t>(q.func)];
      if (kLockInfraClasses.count(d.class_name)) continue;
      const FuncRef ref{fi, q.func};
      const std::string req = QualifyLock(d, q.lock);
      const auto cit = closure.find(ref);
      if (cit == closure.end()) continue;
      for (const auto& [lock, wit] : cit->second) {
        if (lock == req) continue;
        graph.Add(req,
                  {lock,
                   index.Display(ref) + " requires " + req + "; " + wit,
                   f.path, d.line, ""});
      }
    }
  }

  // Cycle detection: for each edge A -> B, a path B ->* A closes a cycle.
  std::set<std::string> reported;  // canonical node-set keys
  for (const auto& [from, edges] : graph.adj) {
    for (const LockGraph::Edge& e : edges) {
      // BFS from e.to back to `from`, tracking the edge path.
      std::map<std::string, const LockGraph::Edge*> parent_edge;
      std::map<std::string, std::string> parent_node;
      std::vector<std::string> queue = {e.to};
      std::set<std::string> seen = {e.to};
      bool found = e.to == from;
      while (!queue.empty() && !found) {
        std::vector<std::string> next;
        for (const std::string& cur : queue) {
          const auto it = graph.adj.find(cur);
          if (it == graph.adj.end()) continue;
          for (const LockGraph::Edge& back : it->second) {
            if (!seen.insert(back.to).second) continue;
            parent_edge[back.to] = &back;
            parent_node[back.to] = cur;
            if (back.to == from) {
              found = true;
              break;
            }
            next.push_back(back.to);
          }
          if (found) break;
        }
        queue = std::move(next);
      }
      if (!found) continue;
      // Reconstruct the return path's evidence.
      std::vector<const LockGraph::Edge*> back_edges;
      std::string cur = from;
      while (cur != e.to) {
        const LockGraph::Edge* pe = parent_edge.at(cur);
        back_edges.push_back(pe);
        cur = parent_node.at(cur);
      }
      std::reverse(back_edges.begin(), back_edges.end());
      // Canonical cycle key: sorted node set.
      std::set<std::string> nodes = {from, e.to};
      for (const LockGraph::Edge* pe : back_edges) nodes.insert(pe->to);
      std::string key;
      for (const std::string& n : nodes) key += n + "|";
      if (!reported.insert(key).second) continue;

      std::string msg = "lock-order cycle between " + from + " and " + e.to +
                        ": [" + e.evidence + "]";
      for (const LockGraph::Edge* pe : back_edges) {
        msg += " vs [" + pe->evidence + "]";
      }
      Finding fd;
      fd.rule_id = kRuleLocks;
      fd.rule_name = "lock-order-cycle";
      fd.path = e.path;
      fd.line = e.line;
      fd.line_text = e.line_text;
      fd.message = std::move(msg);
      out->push_back(std::move(fd));
    }
  }
}

}  // namespace

LoopOrders ResolveLoopOrders(const std::vector<FileFacts>& files) {
  // Order bits per declared name: 1 unordered, 2 pointer-keyed. Keys are
  // shape + name for members, namespace scope and functions, and
  // "file|func|" + shape + name for a function's locals and parameters.
  std::map<std::string, int> bits;
  const auto local = [](int file, int func, char shape,
                        const std::string& name) {
    return std::to_string(file) + "|" + std::to_string(func) + "|" + shape +
           name;
  };
  const auto lookup = [&](int file, int func, char shape,
                          const std::string& name, bool member) {
    const auto g = bits.find(shape + name);
    const auto l =
        member ? bits.end() : bits.find(local(file, func, shape, name));
    return (g == bits.end() ? 0 : g->second) |
           (l == bits.end() ? 0 : l->second);
  };
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    for (const ContainerDecl& d :
         files[static_cast<std::size_t>(fi)].containers) {
      if (d.name.empty()) continue;
      const std::string key =
          d.func < 0 ? d.shape + d.name : local(fi, d.func, d.shape, d.name);
      bits[key] |= (d.unordered ? 1 : 0) | (d.pointer_key ? 2 : 0);
    }
  }
  // A local assigned from a call to a function returning an unordered
  // container (`const auto groups = Neighbors();`) is one too.
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    for (const UnitAssign& a : files[static_cast<std::size_t>(fi)].assigns) {
      if (!a.lhs.starts_with("v:") || !a.rhs.starts_with("c:")) continue;
      const int b = lookup(fi, a.func, 'f', CalleeOf(a.rhs), false);
      if (b != 0) bits[local(fi, a.func, 'v', a.lhs.substr(2))] |= b;
    }
  }
  LoopOrders orders(files.size());
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    for (const RangeLoop& loop : files[fi].loops) {
      const int b = lookup(static_cast<int>(fi), loop.func, loop.shape,
                           loop.container, loop.member);
      orders[fi].push_back((b & 1) != 0   ? "unordered-iter"
                           : (b & 2) != 0 ? "pointer-key"
                                          : "");
    }
  }
  return orders;
}

void AnalyzeDataflow(const std::vector<FileFacts>& files,
                     const SymbolIndex& index, const LoopOrders& loop_orders,
                     std::vector<Finding>* out, UnitsReport* units) {
  Engine engine{files, index, loop_orders, {}, {}, {}, {}, {}, {}, {}, {}};
  engine.Build();
  engine.Fixpoint();
  engine.Check(out, units);
  AnalyzeLockOrder(files, index, out);
}

}  // namespace gl::analyze
