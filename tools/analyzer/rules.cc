#include "tools/analyzer/rules.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

// Every rule here works on the token stream alone — no parse tree, no type
// information. Each one documents the approximation it makes; the shared
// helpers (bracket matching, function-span scanning) keep those
// approximations consistent across rules. Detection keywords that must not
// trip the analyzer on its own source ("unordered_map", "Search", ...)
// appear only inside string literals.

namespace qoco::analyze {
namespace {

using Tokens = std::vector<Token>;

constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }

bool Is(const Token& t, std::string_view text) { return t.text == text; }

bool HasSuffix(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Index of the closer matching the ( / { / [ at `open`, or the token
/// count if the file is unbalanced (rules treat that as "span to EOF").
size_t MatchClose(const Tokens& c, size_t open) {
  const std::string_view o = c[open].text;
  const std::string_view close = o == "(" ? ")" : o == "{" ? "}" : "]";
  int depth = 0;
  for (size_t i = open; i < c.size(); ++i) {
    if (c[i].text == o) {
      ++depth;
    } else if (c[i].text == close) {
      if (--depth == 0) return i;
    }
  }
  return c.size();
}

/// Matching `>` for the `<` at `open`, treating `>>` as two closers.
/// Returns kNpos when the angle never closes before a statement boundary —
/// i.e. this `<` was a comparison, not a template argument list.
size_t MatchAngle(const Tokens& c, size_t open) {
  int depth = 0;
  for (size_t i = open; i < c.size() && i < open + 400; ++i) {
    const std::string_view t = c[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return i;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return i;
    } else if (t == ";" || t == "{" || t == "}") {
      return kNpos;
    }
  }
  return kNpos;
}

/// Token spans of the comma-separated arguments inside (open, close),
/// where commas nested in ()/{}/[] do not split.
std::vector<std::pair<size_t, size_t>> TopLevelArgs(const Tokens& c,
                                                    size_t open,
                                                    size_t close) {
  std::vector<std::pair<size_t, size_t>> args;
  int depth = 0;
  size_t begin = open + 1;
  for (size_t i = open + 1; i < close; ++i) {
    const std::string_view t = c[i].text;
    if (t == "(" || t == "{" || t == "[") {
      ++depth;
    } else if (t == ")" || t == "}" || t == "]") {
      --depth;
    } else if (t == "," && depth == 0) {
      args.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  if (begin < close) args.emplace_back(begin, close);
  return args;
}

/// Identifiers that look like a call head but are control flow or
/// operators, so `name (` is not a function definition or call of `name`.
const std::set<std::string>& NonFunctionKeywords() {
  static const std::set<std::string> kw = {
      "if",      "for",           "while",    "switch",   "catch",
      "return",  "sizeof",        "alignof",  "decltype", "noexcept",
      "new",     "delete",        "throw",    "void",     "constexpr",
      "alignas", "static_assert", "typeid",   "assert",   "defined",
      "requires"};
  return kw;
}

// ---------------------------------------------------------------------------
// Function spans
// ---------------------------------------------------------------------------

/// One function definition found in a file: its body token range, any
/// QOCO_REQUIRES mutexes on the definition, and whether it is a
/// constructor/destructor (exempt from guarded-by, mirroring clang: the
/// object is not yet / no longer shared).
struct FuncSpan {
  std::string name;
  int line = 0;
  size_t body_open = 0;   // index of '{'
  size_t body_close = 0;  // index of the matching '}'
  bool ctor_or_dtor = false;
  std::set<std::string> required_mutexes;
};

struct FuncScan {
  std::vector<FuncSpan> defs;
  /// QOCO_REQUIRES mutexes from pure declarations (`...;`), keyed by
  /// function name: a .cc definition inherits its header declaration's
  /// annotation, which is where clang wants it written.
  std::map<std::string, std::set<std::string>> decl_requires;
};

/// Single forward pass: every `name (args)` followed (after qualifiers,
/// annotations, and an optional constructor initializer list) by `{` is a
/// function definition; by `;` a declaration. Lambdas have no name token
/// before their parens and are deliberately not spans of their own — their
/// tokens belong to the enclosing function.
FuncScan ScanFunctions(const Tokens& c) {
  FuncScan out;
  std::string recent_class;  // innermost `class`/`struct` name seen so far
  for (size_t i = 0; i < c.size(); ++i) {
    if (IsIdent(c[i]) && (c[i].text == "class" || c[i].text == "struct")) {
      size_t n = i + 1;
      // Skip an attribute macro between keyword and name, e.g.
      // `class QOCO_CAPABILITY("mutex") Mutex`.
      if (n + 1 < c.size() && c[n].text.rfind("QOCO_", 0) == 0 &&
          Is(c[n + 1], "(")) {
        n = MatchClose(c, n + 1) + 1;
      }
      if (n < c.size() && IsIdent(c[n])) recent_class = c[n].text;
      continue;
    }
    if (i == 0 || !Is(c[i], "(")) continue;
    const Token& name = c[i - 1];
    if (!IsIdent(name) || NonFunctionKeywords().count(name.text) > 0) continue;
    // Annotation macros (`QOCO_REQUIRES(mu)` before a body) are not
    // function names.
    if (name.text.rfind("QOCO_", 0) == 0) continue;
    const size_t close = MatchClose(c, i);
    if (close >= c.size()) continue;

    // Qualifiers and annotation macros between the parameter list and the
    // body / semicolon.
    std::set<std::string> required;
    size_t k = close + 1;
    while (k < c.size()) {
      const std::string_view t = c[k].text;
      if (t == "const" || t == "noexcept" || t == "override" || t == "final" ||
          t == "mutable" || t == "&" || t == "&&") {
        ++k;
        continue;
      }
      if (c[k].kind == TokKind::kIdent && c[k].text.rfind("QOCO_", 0) == 0) {
        if (k + 1 < c.size() && Is(c[k + 1], "(")) {
          const size_t macro_close = MatchClose(c, k + 1);
          if (c[k].text == "QOCO_REQUIRES") {
            for (size_t a = k + 2; a < macro_close; ++a) {
              if (IsIdent(c[a])) required.insert(c[a].text);
            }
          }
          k = macro_close + 1;
        } else {
          ++k;
        }
        continue;
      }
      break;
    }
    if (k >= c.size()) continue;

    if (Is(c[k], ";")) {
      if (!required.empty()) {
        out.decl_requires[name.text].insert(required.begin(), required.end());
      }
      continue;
    }
    if (Is(c[k], ":")) {
      // Constructor initializer list: `Ident (…)` or `Ident {…}` entries,
      // comma-separated, ending at the body brace.
      ++k;
      bool ok = true;
      while (k + 1 < c.size() && IsIdent(c[k]) &&
             (Is(c[k + 1], "(") || Is(c[k + 1], "{"))) {
        const size_t entry_close = MatchClose(c, k + 1);
        if (entry_close >= c.size()) {
          ok = false;
          break;
        }
        k = entry_close + 1;
        if (k < c.size() && Is(c[k], ",")) {
          ++k;
        } else {
          break;
        }
      }
      if (!ok || k >= c.size()) continue;
    }
    if (!Is(c[k], "{")) continue;

    FuncSpan span;
    span.name = name.text;
    span.line = name.line;
    span.body_open = k;
    span.body_close = MatchClose(c, k);
    span.required_mutexes = std::move(required);
    const bool dtor = Is(c[i - 2 < c.size() ? i - 2 : 0], "~") && i >= 2;
    bool ctor = name.text == recent_class;
    if (i >= 3 && Is(c[i - 2], "::") && IsIdent(c[i - 3]) &&
        c[i - 3].text == name.text) {
      ctor = true;  // out-of-line `Foo::Foo(...)`
    }
    span.ctor_or_dtor = ctor || dtor;
    out.defs.push_back(std::move(span));
  }
  return out;
}

/// The innermost definition span containing token index `i`, or nullptr.
const FuncSpan* EnclosingFunction(const FuncScan& scan, size_t i) {
  const FuncSpan* best = nullptr;
  for (const FuncSpan& f : scan.defs) {
    if (f.body_open <= i && i <= f.body_close &&
        (best == nullptr ||
         f.body_close - f.body_open < best->body_close - best->body_open)) {
      best = &f;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Rule 1: naked-new
// ---------------------------------------------------------------------------

void RuleNakedNew(const SourceFile& f, std::vector<Finding>* out) {
  const Tokens& c = f.code;
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    if (!IsIdent(c[i])) continue;
    const bool is_new = c[i].text == "new";
    const bool is_delete = c[i].text == "delete";
    if (!is_new && !is_delete) continue;
    if (i > 0 && Is(c[i - 1], "operator")) continue;  // operator new/delete
    if (is_delete && i > 0 && Is(c[i - 1], "=")) continue;  // `= delete`
    const Token& next = c[i + 1];
    const bool fires =
        is_new ? IsIdent(next) : (IsIdent(next) || Is(next, "["));
    if (fires) {
      out->push_back({f.path, c[i].line, "naked-new",
                      "naked '" + c[i].text + "'; ownership goes through "
                      "std::make_unique, containers, or values"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: c-randomness
// ---------------------------------------------------------------------------

void RuleCRandomness(const SourceFile& f, std::vector<Finding>* out) {
  const Tokens& c = f.code;
  for (size_t i = 0; i < c.size(); ++i) {
    if (!IsIdent(c[i])) continue;
    if (c[i].text == "random_shuffle") {
      out->push_back({f.path, c[i].line, "c-randomness",
                      "random_shuffle is unseeded-nondeterministic; use "
                      "common::Rng"});
      continue;
    }
    if (c[i].text != "rand" && c[i].text != "srand") continue;
    if (i + 1 >= c.size() || !Is(c[i + 1], "(")) continue;
    if (i > 0 && (Is(c[i - 1], ".") || Is(c[i - 1], "->"))) continue;
    if (i > 0 && Is(c[i - 1], "::")) {
      // Qualified: only the C library's std::rand/std::srand count.
      if (!(i >= 2 && Is(c[i - 2], "std"))) continue;
    }
    out->push_back({f.path, c[i].line, "c-randomness",
                    c[i].text + "() bypasses the seeded common::Rng; all "
                    "randomness must be reproducible from the seed"});
  }
}

// ---------------------------------------------------------------------------
// Rule 3: relation-iterate-mutate
// ---------------------------------------------------------------------------

void RuleRelationIterateMutate(const SourceFile& f, std::vector<Finding>* out) {
  const Tokens& c = f.code;
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    if (!Is(c[i], "for") || !Is(c[i + 1], "(")) continue;
    const size_t close = MatchClose(c, i + 1);
    if (close >= c.size()) continue;
    // Range-for over `<base>.rows()` / `<base>->rows()`: the range
    // expression must end in exactly that call.
    if (close < 5 || !Is(c[close - 1], ")") || !Is(c[close - 2], "(") ||
        !Is(c[close - 3], "rows") ||
        !(Is(c[close - 4], ".") || Is(c[close - 4], "->")) ||
        !IsIdent(c[close - 5])) {
      continue;
    }
    const std::string& base = c[close - 5].text;
    // Loop body: braced block, or a single statement up to ';'.
    size_t body_begin = close + 1;
    size_t body_end;
    if (body_begin < c.size() && Is(c[body_begin], "{")) {
      body_end = MatchClose(c, body_begin);
    } else {
      body_end = body_begin;
      while (body_end < c.size() && !Is(c[body_end], ";")) ++body_end;
    }
    for (size_t j = body_begin; j + 3 < body_end; ++j) {
      if (IsIdent(c[j]) && c[j].text == base &&
          (Is(c[j + 1], ".") || Is(c[j + 1], "->")) &&
          (c[j + 2].text == "Insert" || c[j + 2].text == "Erase") &&
          Is(c[j + 3], "(")) {
        out->push_back({f.path, c[j].line, "relation-iterate-mutate",
                        c[j + 2].text + " on '" + base + "' while "
                        "range-iterating its rows(): the swap-remove "
                        "invalidates the row vector mid-loop"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 4: raw-thread
// ---------------------------------------------------------------------------

void RuleRawThread(const SourceFile& f, std::vector<Finding>* out) {
  if (HasSuffix(f.path, "src/common/thread_pool.cc")) return;
  const Tokens& c = f.code;
  for (size_t i = 0; i + 2 < c.size(); ++i) {
    if (!Is(c[i], "std") || !Is(c[i + 1], "::")) continue;
    const std::string& t = c[i + 2].text;
    if (t != "thread" && t != "jthread") continue;
    const size_t a = i + 3;
    // A construction is `std::thread(` / `std::thread{` or
    // `std::thread name(` / `std::thread name{`. `std::thread::id`,
    // `std::vector<std::thread>` and reference parameters never match.
    bool fires = false;
    if (a < c.size() && (Is(c[a], "(") || Is(c[a], "{"))) fires = true;
    if (a + 1 < c.size() && IsIdent(c[a]) &&
        (Is(c[a + 1], "(") || Is(c[a + 1], "{"))) {
      fires = true;
    }
    if (fires) {
      out->push_back({f.path, c[i].line, "raw-thread",
                      "raw std::" + t + " construction; route work through "
                      "common::ThreadPool so determinism and TSan see it"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 5: temp-string-key
// ---------------------------------------------------------------------------

void RuleTempStringKey(const SourceFile& f, std::vector<Finding>* out) {
  static const std::set<std::string> kLookups = {"find", "count", "contains",
                                                 "at", "erase"};
  const Tokens& c = f.code;
  for (size_t i = 0; i + 6 < c.size(); ++i) {
    if (!(Is(c[i], ".") || Is(c[i], "->"))) continue;
    if (!IsIdent(c[i + 1]) || kLookups.count(c[i + 1].text) == 0) continue;
    if (Is(c[i + 2], "(") && Is(c[i + 3], "std") && Is(c[i + 4], "::") &&
        Is(c[i + 5], "string") && Is(c[i + 6], "(")) {
      out->push_back({f.path, c[i + 1].line, "temp-string-key",
                      "." + c[i + 1].text + "(std::string(...)) allocates a "
                      "temporary key per probe; the maps are transparent — "
                      "pass the string_view directly"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 6: adhoc-search
// ---------------------------------------------------------------------------

void RuleAdhocSearch(const SourceFile& f, std::vector<Finding>* out) {
  if (HasSuffix(f.path, "src/query/evaluator.cc")) return;
  const Tokens& c = f.code;
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    if (!IsIdent(c[i]) || c[i].text != "Search") continue;
    if (i > 0 && (Is(c[i - 1], "::") || Is(c[i - 1], ".") ||
                  Is(c[i - 1], "->") || Is(c[i - 1], "class") ||
                  Is(c[i - 1], "struct"))) {
      continue;  // qualified mention, member, or the type's own definition
    }
    bool fires = Is(c[i + 1], "(") || Is(c[i + 1], "{");
    if (!fires && IsIdent(c[i + 1]) && i + 2 < c.size() &&
        (Is(c[i + 2], "(") || Is(c[i + 2], "{"))) {
      fires = true;
    }
    if (fires) {
      out->push_back({f.path, c[i].line, "adhoc-search",
                      "direct Search construction bypasses the planner; "
                      "evaluate through query::Evaluator"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 7: unordered-iteration
// ---------------------------------------------------------------------------

struct UnorderedDecls {
  std::set<std::string> names;  // variables/members of unordered type
  std::set<std::string> fns;    // functions returning an unordered container
  std::set<std::string> types;  // using-aliases of unordered types
};

void CollectUnordered(const Tokens& c, UnorderedDecls* d) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (size_t i = 0; i + 3 < c.size(); ++i) {
    if (!Is(c[i], "std") || !Is(c[i + 1], "::") || !IsIdent(c[i + 2]) ||
        kUnordered.count(c[i + 2].text) == 0 || !Is(c[i + 3], "<")) {
      continue;
    }
    const size_t gt = MatchAngle(c, i + 3);
    if (gt == kNpos) continue;
    if (i >= 3 && Is(c[i - 1], "=") && IsIdent(c[i - 2]) &&
        Is(c[i - 3], "using")) {
      d->types.insert(c[i - 2].text);
      continue;
    }
    size_t k = gt + 1;
    while (k < c.size() &&
           (Is(c[k], "&") || Is(c[k], "*") || Is(c[k], "const"))) {
      ++k;
    }
    if (k < c.size() && IsIdent(c[k])) {
      if (k + 1 < c.size() && Is(c[k + 1], "(")) {
        d->fns.insert(c[k].text);
      } else {
        d->names.insert(c[k].text);
      }
    }
  }
  // Declarations through a collected alias: `AliasType name ...`.
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    if (!IsIdent(c[i]) || d->types.count(c[i].text) == 0) continue;
    size_t k = i + 1;
    while (k < c.size() && (Is(c[k], "&") || Is(c[k], "*"))) ++k;
    if (k < c.size() && IsIdent(c[k])) {
      if (k + 1 < c.size() && Is(c[k + 1], "(")) {
        d->fns.insert(c[k].text);
      } else {
        d->names.insert(c[k].text);
      }
    }
  }
  // References bound to a tracked function's result:
  // `auto& m = TrackedFn(...)`.
  for (size_t i = 0; i + 4 < c.size(); ++i) {
    if (!Is(c[i], "auto")) continue;
    size_t k = i + 1;
    while (k < c.size() && (Is(c[k], "&") || Is(c[k], "const"))) ++k;
    if (k + 3 < c.size() && IsIdent(c[k]) && Is(c[k + 1], "=") &&
        IsIdent(c[k + 2]) && d->fns.count(c[k + 2].text) > 0 &&
        Is(c[k + 3], "(")) {
      d->names.insert(c[k].text);
    }
  }
}

void RuleUnorderedIteration(const SourceFile& f, const SourceFile* sibling,
                            const FuncScan& funcs,
                            const AnalyzerConfig& config,
                            std::vector<Finding>* out) {
  UnorderedDecls d;
  CollectUnordered(f.code, &d);
  if (sibling != nullptr) CollectUnordered(sibling->code, &d);
  if (d.names.empty() && d.fns.empty()) return;
  const Tokens& c = f.code;

  auto allowlisted = [&](size_t i) {
    const FuncSpan* fn = EnclosingFunction(funcs, i);
    return fn != nullptr &&
           config.order_insensitive_functions.count(fn->name) > 0;
  };
  auto add = [&](int line, const std::string& name) {
    out->push_back({f.path, line, "unordered-iteration",
                    "iteration over unordered container '" + name + "' "
                    "visits elements in hash order, which is not stable "
                    "across runs, platforms, or insertions"});
  };

  for (size_t i = 0; i + 1 < c.size(); ++i) {
    // Range-for whose range expression mentions a tracked container or
    // calls a tracked unordered-returning function.
    if (Is(c[i], "for") && Is(c[i + 1], "(")) {
      const size_t close = MatchClose(c, i + 1);
      if (close >= c.size()) continue;
      size_t colon = kNpos;
      int depth = 0;
      for (size_t j = i + 2; j < close; ++j) {
        const std::string_view t = c[j].text;
        if (t == "(" || t == "{" || t == "[") ++depth;
        if (t == ")" || t == "}" || t == "]") --depth;
        if (t == ":" && depth == 0) {
          colon = j;
          break;
        }
      }
      if (colon == kNpos) continue;
      for (size_t j = colon + 1; j < close; ++j) {
        if (!IsIdent(c[j])) continue;
        const bool hit =
            d.names.count(c[j].text) > 0 ||
            (d.fns.count(c[j].text) > 0 && j + 1 < close && Is(c[j + 1], "("));
        if (hit) {
          if (!allowlisted(i)) add(c[i].line, c[j].text);
          break;
        }
      }
      continue;
    }
    // Iterator loops and explicit traversal: `tracked.begin()`.
    if (IsIdent(c[i]) && d.names.count(c[i].text) > 0 && i + 3 < c.size() &&
        (Is(c[i + 1], ".") || Is(c[i + 1], "->")) &&
        (c[i + 2].text == "begin" || c[i + 2].text == "cbegin") &&
        Is(c[i + 3], "(")) {
      if (!allowlisted(i)) add(c[i].line, c[i].text);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 8: id-order
// ---------------------------------------------------------------------------

/// Files that legitimately use raw ValueId order: the id encoding itself,
/// the dictionary (which defines the value-order Compare), and the posting
/// maps whose sorted-id set algebra is an internal representation that
/// never reaches output.
bool IdOrderAllowlisted(const std::string& path) {
  return HasSuffix(path, "src/relational/value_id.h") ||
         HasSuffix(path, "src/relational/value_dictionary.h") ||
         HasSuffix(path, "src/relational/value_dictionary.cc") ||
         HasSuffix(path, "src/relational/id_posting_map.h");
}

/// One ValueId-typed declaration. `index` is the declaring token's
/// position (kNpos for declarations merged in from the sibling header,
/// which are members and therefore in scope everywhere).
struct IdDecl {
  std::string name;
  size_t index = kNpos;
};

struct IdDecls {
  std::vector<IdDecl> vars;        // ValueId-typed variables/parameters
  std::vector<IdDecl> containers;  // std::vector<ValueId> names
};

void CollectIdDecls(const Tokens& c, bool sibling, IdDecls* d) {
  const auto at = [&](size_t i) { return sibling ? kNpos : i; };
  for (size_t i = 0; i + 2 < c.size(); ++i) {
    if (IsIdent(c[i]) && c[i].text == "ValueId" && IsIdent(c[i + 1])) {
      const std::string_view after = c[i + 2].text;
      if (after == ";" || after == "=" || after == "," || after == ")" ||
          after == ":" || after == "{") {
        d->vars.push_back({c[i + 1].text, at(i + 1)});
      }
      continue;
    }
    if (Is(c[i], "std") && Is(c[i + 1], "::") && c[i + 2].text == "vector" &&
        i + 3 < c.size() && Is(c[i + 3], "<")) {
      size_t v = i + 4;
      if (v + 1 < c.size() && Is(c[v], "relational") && Is(c[v + 1], "::")) {
        v += 2;
      }
      if (!(v + 1 < c.size() && IsIdent(c[v]) && c[v].text == "ValueId" &&
            Is(c[v + 1], ">"))) {
        continue;
      }
      size_t k = v + 2;
      while (k < c.size() &&
             (Is(c[k], "&") || Is(c[k], "*") || Is(c[k], "const"))) {
        ++k;
      }
      if (k < c.size() && IsIdent(c[k]) &&
          !(k + 1 < c.size() && Is(c[k + 1], "("))) {
        d->containers.push_back({c[k].text, at(k)});
      }
    }
  }
}

/// Scope filter: a declaration inside a function body only tracks uses in
/// that same body (a `ValueId i` in one TEST must not taint the `int i`
/// loops of every other function in the file); declarations outside any
/// body — members, namespace scope, sibling-header members — track
/// file-wide.
class IdScope {
 public:
  IdScope(const std::vector<IdDecl>& decls, const FuncScan& funcs)
      : decls_(decls), funcs_(funcs) {}

  bool Tracks(const std::string& name, size_t use) const {
    for (const IdDecl& d : decls_) {
      if (d.name != name) continue;
      if (d.index == kNpos) return true;
      const FuncSpan* scope = EnclosingFunction(funcs_, d.index);
      if (scope == nullptr) return true;
      if (scope->body_open <= use && use <= scope->body_close) return true;
      // Parameters sit just before the body they scope over.
      if (d.index < scope->body_open && use >= d.index) return true;
    }
    return false;
  }

 private:
  const std::vector<IdDecl>& decls_;
  const FuncScan& funcs_;
};

void RuleIdOrder(const SourceFile& f, const SourceFile* sibling,
                 const FuncScan& funcs, std::vector<Finding>* out) {
  if (IdOrderAllowlisted(f.path)) return;
  IdDecls d;
  CollectIdDecls(f.code, /*sibling=*/false, &d);
  if (sibling != nullptr) CollectIdDecls(sibling->code, /*sibling=*/true, &d);
  if (d.vars.empty() && d.containers.empty()) return;
  const Tokens& c = f.code;
  const IdScope vars(d.vars, funcs);
  const IdScope containers(d.containers, funcs);

  // Is the '<' or '>' at `i` one side of a template argument list rather
  // than a comparison? `<` resolves forward; `>` resolves backward.
  auto template_angle = [&](size_t i) {
    if (c[i].text == "<") return MatchAngle(c, i) != kNpos;
    int depth = 1;
    for (size_t j = i; j-- > 0 && i - j < 400;) {
      const std::string_view t = c[j].text;
      if (t == ">") ++depth;
      if (t == "<" && --depth == 0) return true;
      if (t == ";" || t == "{" || t == "}") return false;
    }
    return false;
  };
  // A bare use of a tracked ValueId variable: the neighbor identifier is
  // the variable itself, not a same-named field of another object (`x.b`)
  // nor the prefix of a member access (`b.est`).
  auto bare_var = [&](size_t i, bool left_side) {
    if (!IsIdent(c[i]) || !vars.Tracks(c[i].text, i)) return false;
    if (i > 0 && (Is(c[i - 1], ".") || Is(c[i - 1], "->"))) return false;
    if (!left_side && i + 1 < c.size() &&
        (Is(c[i + 1], ".") || Is(c[i + 1], "->") || Is(c[i + 1], "::") ||
         Is(c[i + 1], "("))) {
      return false;
    }
    return true;
  };

  // Relational comparison with a ValueId on either side.
  for (size_t i = 1; i + 1 < c.size(); ++i) {
    if (c[i].kind != TokKind::kPunct) continue;
    const std::string_view t = c[i].text;
    if (t != "<" && t != ">" && t != "<=" && t != ">=") continue;
    const bool left = bare_var(i - 1, /*left_side=*/true);
    const bool right = bare_var(i + 1, /*left_side=*/false);
    if (!left && !right) continue;
    if ((t == "<" || t == ">") && template_angle(i)) continue;
    const std::string& name = left ? c[i - 1].text : c[i + 1].text;
    out->push_back({f.path, c[i].line, "id-order",
                    "relational '" + std::string(t) + "' on ValueId '" +
                    name + "': raw ids order by dictionary insertion, "
                    "not value; use ValueDictionary::Compare"});
  }

  // Ordering algorithms over id containers without an explicit comparator.
  static const std::map<std::string, size_t> kOrderingFns = {
      // name -> argument count at which a comparator IS present
      {"sort", 3},         {"stable_sort", 3}, {"partial_sort", 4},
      {"nth_element", 4},  {"binary_search", 3}, {"lower_bound", 3},
      {"upper_bound", 3},  {"is_sorted", 3},   {"min", 3},
      {"max", 3},          {"minmax", 3}};
  for (size_t i = 0; i + 3 < c.size(); ++i) {
    if (!Is(c[i], "std") || !Is(c[i + 1], "::") || !IsIdent(c[i + 2])) {
      continue;
    }
    const auto it = kOrderingFns.find(c[i + 2].text);
    if (it == kOrderingFns.end() || !Is(c[i + 3], "(")) continue;
    const size_t close = MatchClose(c, i + 3);
    if (close >= c.size()) continue;
    // The call orders ids when an argument is an iterator range over a
    // tracked id container or a tracked ValueId variable itself —
    // `ids.size()` and other non-ordering uses of the name do not count.
    static const std::set<std::string> kRangeFns = {
        "begin", "end", "cbegin", "cend", "rbegin", "rend"};
    bool touches_ids = false;
    for (size_t j = i + 4; j < close && !touches_ids; ++j) {
      if (!IsIdent(c[j])) continue;
      if (containers.Tracks(c[j].text, j) && j + 2 < close &&
          (Is(c[j + 1], ".") || Is(c[j + 1], "->")) &&
          kRangeFns.count(c[j + 2].text) > 0) {
        touches_ids = true;
      }
      if (vars.Tracks(c[j].text, j) &&
          !(j + 1 < close && (Is(c[j + 1], ".") || Is(c[j + 1], "->") ||
                              Is(c[j + 1], "(") || Is(c[j + 1], "::"))) &&
          !(Is(c[j - 1], ".") || Is(c[j - 1], "->"))) {
        touches_ids = true;
      }
    }
    if (!touches_ids) continue;
    if (TopLevelArgs(c, i + 3, close).size() >= it->second) continue;
    out->push_back({f.path, c[i].line, "id-order",
                    "std::" + c[i + 2].text + " over ValueIds without a "
                    "comparator sorts by raw id (dictionary insertion "
                    "order); pass a ValueDictionary::Compare-based "
                    "comparator or keep ids out of ordered output"});
  }
}

// ---------------------------------------------------------------------------
// Rule 9: worker-intern
// ---------------------------------------------------------------------------

void ScanSpanForCoordinatorCalls(const SourceFile& f, size_t begin, size_t end,
                                 const CrossFileIndex& index,
                                 const std::string& region,
                                 std::vector<Finding>* out) {
  const Tokens& c = f.code;
  for (size_t j = begin; j + 1 < end; ++j) {
    if (IsIdent(c[j]) && index.coordinator_only.count(c[j].text) > 0 &&
        Is(c[j + 1], "(")) {
      out->push_back({f.path, c[j].line, "worker-intern",
                      c[j].text + "() is coordinator-only (it mutates "
                      "shared interning/catalog state) but is called "
                      "inside a " + region + " region that runs on pool "
                      "workers"});
    }
  }
}

void RuleWorkerIntern(const SourceFile& f, const CrossFileIndex& index,
                      std::vector<Finding>* out) {
  const Tokens& c = f.code;
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    if (!IsIdent(c[i])) continue;
    const std::string& name = c[i].text;
    if (name != "Submit") continue;
    const size_t open = i + 1;
    if (!Is(c[open], "(")) continue;
    const size_t close = MatchClose(c, open);
    if (close >= c.size()) continue;
    ScanSpanForCoordinatorCalls(f, open + 1, close, index, name, out);

    // A bare-identifier argument may name a lambda defined earlier in the
    // file (`auto task = [&] {...}; pool.Submit(task);`): scan that
    // lambda's body too.
    for (const auto& [abegin, aend] : TopLevelArgs(c, open, close)) {
      if (aend - abegin != 1 || !IsIdent(c[abegin])) continue;
      const std::string& arg = c[abegin].text;
      for (size_t p = 0; p + 3 < i; ++p) {
        if (!Is(c[p], "auto") || !IsIdent(c[p + 1]) ||
            c[p + 1].text != arg || !Is(c[p + 2], "=") ||
            !Is(c[p + 3], "[")) {
          continue;
        }
        const size_t captures_close = MatchClose(c, p + 3);
        if (captures_close >= c.size()) break;
        size_t q = captures_close + 1;
        if (q < c.size() && Is(c[q], "(")) q = MatchClose(c, q) + 1;
        while (q < c.size() && !Is(c[q], "{") && q < captures_close + 40) ++q;
        if (q < c.size() && Is(c[q], "{")) {
          ScanSpanForCoordinatorCalls(f, q + 1, MatchClose(c, q), index,
                                      name, out);
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 10: guarded-by
// ---------------------------------------------------------------------------

void CollectGuarded(const Tokens& c,
                    std::map<std::string, std::string>* guarded) {
  for (size_t i = 1; i + 1 < c.size(); ++i) {
    if (!IsIdent(c[i]) || c[i].text != "QOCO_GUARDED_BY" ||
        !IsIdent(c[i - 1]) || !Is(c[i + 1], "(")) {
      continue;
    }
    const size_t close = MatchClose(c, i + 1);
    std::string mutex;
    for (size_t j = i + 2; j < close; ++j) {
      if (IsIdent(c[j])) mutex = c[j].text;  // last identifier: `a->mu_`
    }
    if (!mutex.empty()) (*guarded)[c[i - 1].text] = mutex;
  }
}

void RuleGuardedBy(const SourceFile& f, const SourceFile* sibling,
                   const FuncScan& funcs, const FuncScan* sibling_funcs,
                   std::vector<Finding>* out) {
  std::map<std::string, std::string> guarded;
  CollectGuarded(f.code, &guarded);
  if (sibling != nullptr) CollectGuarded(sibling->code, &guarded);
  if (guarded.empty()) return;
  const Tokens& c = f.code;

  static const std::set<std::string> kLockTypes = {"MutexLock", "lock_guard",
                                                   "unique_lock",
                                                   "scoped_lock"};
  for (const FuncSpan& fn : funcs.defs) {
    if (fn.ctor_or_dtor) continue;
    std::set<std::string> held = fn.required_mutexes;
    auto merge_decl = [&](const FuncScan& scan) {
      const auto it = scan.decl_requires.find(fn.name);
      if (it != scan.decl_requires.end()) {
        held.insert(it->second.begin(), it->second.end());
      }
    };
    merge_decl(funcs);
    if (sibling_funcs != nullptr) merge_decl(*sibling_funcs);

    // Lock constructions inside the body, with their token positions: an
    // access is covered only by a lock constructed before it. (Scope exit
    // of the lock object is not modeled; clang's analysis is the precise
    // layer, this rule is the every-compiler backstop.)
    std::vector<std::pair<size_t, std::string>> locks;
    for (size_t j = fn.body_open + 1; j < fn.body_close; ++j) {
      if (!IsIdent(c[j]) || kLockTypes.count(c[j].text) == 0) continue;
      size_t k = j + 1;
      if (k < c.size() && Is(c[k], "<")) {
        const size_t gt = MatchAngle(c, k);
        if (gt == kNpos) continue;
        k = gt + 1;
      }
      if (!(k + 1 < c.size() && IsIdent(c[k]) && Is(c[k + 1], "("))) continue;
      const size_t lclose = MatchClose(c, k + 1);
      for (const auto& [abegin, aend] : TopLevelArgs(c, k + 1, lclose)) {
        std::string mutex;
        for (size_t a = abegin; a < aend; ++a) {
          if (IsIdent(c[a])) mutex = c[a].text;
        }
        if (!mutex.empty()) locks.emplace_back(j, mutex);
      }
    }

    for (size_t j = fn.body_open + 1; j < fn.body_close; ++j) {
      if (!IsIdent(c[j])) continue;
      const auto it = guarded.find(c[j].text);
      if (it == guarded.end()) continue;
      const std::string& mutex = it->second;
      bool covered = held.count(mutex) > 0;
      for (const auto& [pos, locked] : locks) {
        if (covered) break;
        covered = locked == mutex && pos < j;
      }
      if (!covered) {
        out->push_back({f.path, c[j].line, "guarded-by",
                        "member '" + c[j].text + "' is QOCO_GUARDED_BY(" +
                        mutex + ") but '" + fn.name + "' accesses it "
                        "without holding or requiring that mutex"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 11: blocking-oracle
// ---------------------------------------------------------------------------

/// Service-layer code must ask the crowd through the QuestionBroker
/// (BrokerOracle -> AskBlocking): the broker dedups identical questions
/// across sessions, retries timeouts, and fails closed. A direct member
/// call on a crowd::Oracle blocks a pool worker with none of that.
/// Approximation: any `.`/`->` invocation of an Oracle interface method in
/// a src/service/ file. Method *definitions* (`BrokerOracle::IsFactTrue`)
/// and the crowd::Question::Complete/MissingAnswer factories are qualified
/// with `::`, so the receiver pattern never matches them.
void RuleBlockingOracle(const SourceFile& f, std::vector<Finding>* out) {
  if (f.path.find("src/service/") == std::string::npos) return;
  static const std::set<std::string> kOracleMethods = {
      "IsFactTrue", "IsAnswerTrue", "Complete", "MissingAnswer"};
  const Tokens& c = f.code;
  for (size_t i = 0; i + 2 < c.size(); ++i) {
    if (!(Is(c[i], ".") || Is(c[i], "->"))) continue;
    if (!IsIdent(c[i + 1]) || kOracleMethods.count(c[i + 1].text) == 0) {
      continue;
    }
    if (!Is(c[i + 2], "(")) continue;
    out->push_back({f.path, c[i + 1].line, "blocking-oracle",
                    "direct " + c[i + 1].text + "() on a crowd oracle "
                    "blocks a pool worker outside the broker; service code "
                    "asks via BrokerOracle so questions dedup across "
                    "sessions, retry on timeout, and fail closed"});
  }
}

// ---------------------------------------------------------------------------
// Rule 12: clock-read
// ---------------------------------------------------------------------------

/// Storage, evaluation and cleaning must not read a clock: their outputs
/// feed transcripts, and timing belongs to the layers that measure them
/// (the service, benchmarks). Approximation: any identifier token naming a
/// std::chrono clock or a POSIX time call in a src/relational/, src/query/
/// or src/cleaning/ file; comments and string literals never match.
void RuleClockRead(const SourceFile& f, std::vector<Finding>* out) {
  if (f.path.find("src/relational/") == std::string::npos &&
      f.path.find("src/query/") == std::string::npos &&
      f.path.find("src/cleaning/") == std::string::npos) {
    return;
  }
  static const std::set<std::string> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday"};
  for (const Token& t : f.code) {
    if (!IsIdent(t) || kClocks.count(t.text) == 0) continue;
    out->push_back({f.path, t.line, "clock-read",
                    t.text + " reads a clock inside the determinism surface; "
                    "time sessions from the service or a benchmark"});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Cross-file index
// ---------------------------------------------------------------------------

CrossFileIndex BuildCrossFileIndex(const std::vector<SourceFile>& files) {
  CrossFileIndex index;
  // The Intern family is coordinator-only by contract even when a scan
  // doesn't include value_dictionary.h.
  index.coordinator_only = {"Intern",       "InternString", "InternInt",
                            "InternDouble", "InternTuple",  "InternFact"};
  for (const SourceFile& f : files) {
    const Tokens& c = f.code;
    for (size_t i = 1; i < c.size(); ++i) {
      if (!IsIdent(c[i]) || c[i].text != "QOCO_COORDINATOR_ONLY") continue;
      // Walk back over trailing qualifiers to the parameter list; the
      // identifier before its '(' is the annotated function.
      size_t j = i - 1;
      while (j > 0 && (Is(c[j], "const") || Is(c[j], "noexcept") ||
                       Is(c[j], "override") || Is(c[j], "final") ||
                       Is(c[j], "&") || Is(c[j], "&&"))) {
        --j;
      }
      if (!Is(c[j], ")")) continue;
      int depth = 0;
      size_t k = j;
      while (k > 0) {
        if (Is(c[k], ")")) ++depth;
        if (Is(c[k], "(") && --depth == 0) break;
        --k;
      }
      if (k > 0 && IsIdent(c[k - 1])) {
        index.coordinator_only.insert(c[k - 1].text);
      }
    }
  }
  return index;
}

void RunRules(const SourceFile& file, const SourceFile* sibling,
              const CrossFileIndex& index, const AnalyzerConfig& config,
              std::vector<Finding>* findings) {
  const FuncScan funcs = ScanFunctions(file.code);
  FuncScan sibling_funcs;
  if (sibling != nullptr) sibling_funcs = ScanFunctions(sibling->code);

  RuleNakedNew(file, findings);
  RuleCRandomness(file, findings);
  RuleRelationIterateMutate(file, findings);
  RuleRawThread(file, findings);
  RuleTempStringKey(file, findings);
  RuleAdhocSearch(file, findings);
  RuleUnorderedIteration(file, sibling, funcs, config, findings);
  RuleIdOrder(file, sibling, funcs, findings);
  RuleWorkerIntern(file, index, findings);
  RuleGuardedBy(file, sibling, funcs,
                sibling != nullptr ? &sibling_funcs : nullptr, findings);
  RuleBlockingOracle(file, findings);
  RuleClockRead(file, findings);
}

}  // namespace qoco::analyze
