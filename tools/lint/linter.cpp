#include "linter.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "flow.h"
#include "scan.h"

namespace rrsim::lint {

namespace {

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

constexpr char kUnorderedContainer[] = "unordered-container";
constexpr char kWallClock[] = "wall-clock";
constexpr char kAmbientRng[] = "ambient-rng";
constexpr char kUnseededShuffle[] = "unseeded-shuffle";
constexpr char kPointerKey[] = "pointer-key";
constexpr char kMutableGlobal[] = "mutable-global";
constexpr char kStdFunctionMember[] = "std-function-member";
constexpr char kWorkerRefCapture[] = "worker-ref-capture";
constexpr char kStreamMaterialization[] = "stream-materialization";
constexpr char kBareAllow[] = "bare-allow";
constexpr char kTieSensitiveCompare[] = "tie-sensitive-compare";
constexpr char kIterationOrderEscape[] = "iteration-order-escape";
constexpr char kUnstableSort[] = "unstable-sort";

const std::vector<RuleInfo> kRules = {
    {kUnorderedContainer,
     "std::unordered_{map,set} banned: iteration order is unspecified and "
     "can leak into results; use util::FlatHashMap (no ordered iteration "
     "exposed), util::FlatOrderedMap, or sorted extraction"},
    {kWallClock,
     "wall-clock reads (std::time, clock(), system_clock, steady_clock, "
     "...) in src/: simulated time must come from des::Simulation::now()"},
    {kAmbientRng,
     "ambient randomness (rand(), srand(), std::random_device, "
     "random_shuffle): all draws must come from a seeded util::Rng"},
    {kUnseededShuffle,
     "std::shuffle/std::sample without a visibly seeded engine argument"},
    {kPointerKey,
     "pointer-keyed map/set or pointer-comparing std::less/std::greater: "
     "pointer order varies run to run; key on ids"},
    {kMutableGlobal,
     "mutable namespace-scope variable in src/: cross-run state breaks "
     "replay determinism; pass state explicitly or make it constexpr"},
    {kStdFunctionMember,
     "std::function stored as a class member in src/: use "
     "util::InlineFunction on hot paths, or justify why the type-erased "
     "heap fallback is acceptable"},
    {kWorkerRefCapture,
     "default reference capture ([&] / [&, ...]) on a worker callback "
     "passed to parallel_for_each in src/: wholesale capture silently "
     "shares mutable state across worker threads (the PDES partition "
     "contract forbids it); capture the objects you need explicitly"},
    {kStreamMaterialization,
     "generate_stream / read_swf call in src/core or src/exec: whole-"
     "stream materialization is O(total jobs) resident and defeats the "
     "windowed trace engine; pull windows via workload::StreamWindow or a "
     "WindowSpool reader (or justify the explicitly-retained path with an "
     "allow annotation)"},
    {kBareAllow,
     "rrsim-lint-allow annotation without a justification or naming an "
     "unknown rule"},
    {kTieSensitiveCompare,
     "comparator (functor, or lambda passed to std::sort / nth_element / "
     "*_heap) in src/ ordering by time-like fields with no discriminating "
     "field (seq / id / ...): equal timestamps fall back to container "
     "order accidents; std::stable_sort comparators are exempt"},
    {kIterationOrderEscape,
     "util::FlatHashMap::for_each body in src/ that lets hash-order "
     "escape: posting events, appending to a sequence, or accumulating "
     "into a float; collect into a sorted buffer first"},
    {kUnstableSort,
     "std::sort in src/ without a provably total order: elements with a "
     "time-like field and no operator<, or a comparator the linter cannot "
     "analyze; use std::stable_sort or add a stable-id tie-break"},
};

// Pass 1 (strip + allow harvesting) and pass 2 (tokenize) live in
// scan.cpp, shared with the flow-aware analyzer in flow.cpp.

// ---------------------------------------------------------------------------
// Pass 3: rules over the token stream
// ---------------------------------------------------------------------------

bool in_set(const std::string& t, std::initializer_list<const char*> set) {
  for (const char* s : set) {
    if (t == s) return true;
  }
  return false;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

class Scanner {
 public:
  Scanner(const std::string& path, Category cat, const AllowSet& allows,
          std::vector<Finding>& findings)
      : path_(path),
        cat_(cat),
        allows_(allows),
        findings_(findings),
        stream_rule_applies_(cat == Category::kSrc &&
                             (has_path_component(path, "core") ||
                              has_path_component(path, "exec"))) {}

  void run(const std::vector<Token>& tokens) {
    tokens_ = &tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      token_rules(i);
      scope_step(i);
    }
  }

 private:
  enum class Scope { kNamespace, kClass, kEnum, kFunction, kBlock, kInit };

  const Token& tok(std::size_t i) const { return (*tokens_)[i]; }
  std::size_t count() const { return tokens_->size(); }

  void report(const char* rule, int line, const std::string& msg) {
    if (allows_.allows(rule, line)) return;
    // One finding per (rule, line): a single declaration can trip the
    // same rule through several tokens.
    if (!reported_.insert(std::string(rule) + "#" +
                          std::to_string(line)).second) {
      return;
    }
    findings_.push_back({path_, line, rule, msg});
  }

  // --- token-level rules --------------------------------------------------

  /// True if tokens at i-2, i-1 are `std ::` (possibly `:: x ::` chains
  /// are not treated as std).
  bool std_qualified(std::size_t i) const {
    return i >= 2 && tok(i - 1).text == "::" && tok(i - 2).text == "std";
  }

  /// True if the identifier at `i` is a free call: `name (` not preceded
  /// by `.`, `->` or a declaration-ish token. Member accesses and
  /// declarations of same-named entities stay silent.
  bool bare_call(std::size_t i) const {
    if (i + 1 >= count() || tok(i + 1).text != "(") return false;
    if (i == 0) return true;
    const std::string& p = tok(i - 1).text;
    if (p == "::") {
      // std::time(...) or ::time(...) — qualified call.
      if (i >= 2) {
        const std::string& pp = tok(i - 2).text;
        return pp == "std" || !tok(i - 2).is_ident;
      }
      return true;
    }
    if (p == "." || p == "->") return false;      // member access
    if (tok(i - 1).is_ident) return false;        // `Time time(...)` decl
    if (p == ">" || p == "*" || p == "&") return false;  // declarator
    return true;
  }

  /// Finds the token index of the `>` matching the `<` at `open`.
  std::size_t match_angle(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < count(); ++i) {
      const std::string& t = tok(i).text;
      if (t == "<") ++depth;
      if (t == ">") {
        if (--depth == 0) return i;
      }
      if (t == ";" || t == "{") break;  // not a template argument list
    }
    return open;
  }

  std::size_t match_paren(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < count(); ++i) {
      const std::string& t = tok(i).text;
      if (t == "(") ++depth;
      if (t == ")") {
        if (--depth == 0) return i;
      }
    }
    return open;
  }

  void token_rules(std::size_t i) {
    const Token& t = tok(i);
    if (!t.is_ident) return;

    // unordered-container: ban the type wherever it appears (a token
    // scanner cannot prove the container is never iterated).
    if (in_set(t.text, {"unordered_map", "unordered_set",
                        "unordered_multimap", "unordered_multiset"})) {
      report(kUnorderedContainer, t.line,
             "std::" + t.text +
                 " has unspecified iteration order; use util::FlatHashMap, "
                 "util::FlatOrderedMap, or sorted extraction");
    }

    // wall-clock (src/ only: benches time themselves by design, and the
    // bench env stamp uses std::time on purpose).
    if (cat_ == Category::kSrc) {
      if (in_set(t.text,
                 {"system_clock", "steady_clock", "high_resolution_clock",
                  "gettimeofday", "clock_gettime", "localtime", "gmtime",
                  "mktime", "ctime", "timespec_get"})) {
        report(kWallClock, t.line,
               "wall-clock source '" + t.text +
                   "' in simulator code; simulated time must come from "
                   "des::Simulation::now()");
      }
      if ((t.text == "time" || t.text == "clock") && bare_call(i)) {
        report(kWallClock, t.line,
               "call to " + t.text +
                   "() reads the wall clock; simulated time must come "
                   "from des::Simulation::now()");
      }
    }

    // ambient-rng: unseeded / non-replayable randomness anywhere.
    if (in_set(t.text, {"random_device", "random_shuffle", "srand",
                        "drand48", "lrand48", "srandom"})) {
      report(kAmbientRng, t.line,
             "'" + t.text +
                 "' is not replayable; draw from a seeded util::Rng");
    }
    if (t.text == "rand" && bare_call(i)) {
      report(kAmbientRng, t.line,
             "rand() is hidden global state; draw from a seeded util::Rng");
    }

    // unseeded-shuffle: std::shuffle/std::sample whose arguments show no
    // recognizable deterministic engine.
    if ((t.text == "shuffle" || t.text == "sample") && std_qualified(i) &&
        i + 1 < count() && tok(i + 1).text == "(") {
      const std::size_t close = match_paren(i + 1);
      bool seeded = false;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (!tok(j).is_ident) continue;
        const std::string l = lower(tok(j).text);
        if (l.find("rng") != std::string::npos ||
            l.find("engine") != std::string::npos ||
            in_set(tok(j).text,
                   {"mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
                    "ranlux24", "ranlux48", "knuth_b", "gen", "urbg"})) {
          seeded = true;
          break;
        }
      }
      if (!seeded) {
        report(kUnseededShuffle, t.line,
               "std::" + t.text +
                   " without a visibly seeded engine; pass a named "
                   "util::Rng-backed engine");
      }
    }

    // worker-ref-capture (src/ only): a lambda handed to
    // parallel_for_each with a default reference capture. Worker
    // callbacks run concurrently on pool threads, so "capture whatever
    // the body mentions" is exactly how shared mutable state sneaks into
    // a parallel region; explicit captures make every shared object
    // visible at the call site.
    if (cat_ == Category::kSrc && t.text == "parallel_for_each" &&
        i + 1 < count() && tok(i + 1).text == "(") {
      const std::size_t close = match_paren(i + 1);
      for (std::size_t j = i + 2; j + 2 < close; ++j) {
        if (tok(j).text != "[" || tok(j + 1).text != "&") continue;
        if (tok(j + 2).text == "]" || tok(j + 2).text == ",") {
          report(kWorkerRefCapture, tok(j).line,
                 "worker callback passed to parallel_for_each captures by "
                 "default reference; name the captured objects explicitly "
                 "so shared state is auditable");
        }
      }
    }

    // stream-materialization (src/core + src/exec only): a call that
    // materializes a whole job stream in the experiment/execution layers.
    // Fires on member calls too (model.generate_stream(...) is the usual
    // form) — the retained-path call site carries a justified allow.
    if (stream_rule_applies_ && t.text == "generate_stream" &&
        i + 1 < count() && tok(i + 1).text == "(") {
      report(kStreamMaterialization, t.line,
             "generate_stream materializes a whole stream (O(total jobs) "
             "resident); pull bounded chunks via workload::StreamWindow, "
             "or annotate the explicitly-retained path");
    }
    // Same rule, SWF flavor: read_swf / read_swf_file load an entire
    // trace file into memory. In core/exec that belongs in exactly one
    // sanctioned entry point (core::detail::load_swf_stream, which both
    // the retained path and the WindowSpool builder share) — anywhere
    // else it is a full-trace load sneaking past the spool.
    if (stream_rule_applies_ &&
        (t.text == "read_swf" || t.text == "read_swf_file") &&
        i + 1 < count() && tok(i + 1).text == "(") {
      report(kStreamMaterialization, t.line,
             t.text + " loads a whole SWF trace (O(total jobs) resident); "
             "replay through the retained entry point or a WindowSpool "
             "reader, or annotate the sanctioned loader");
    }

    // pointer-key: map/set keyed on a pointer, or a pointer-comparing
    // ordering functor.
    if (i + 1 < count() && tok(i + 1).text == "<") {
      const bool keyed = in_set(
          t.text, {"map", "multimap", "set", "multiset", "unordered_map",
                   "unordered_set", "unordered_multimap",
                   "unordered_multiset", "FlatHashMap", "FlatOrderedMap"});
      const bool comparator = in_set(t.text, {"less", "greater"});
      if (keyed || comparator) {
        const std::size_t close = match_angle(i + 1);
        if (close > i + 1) {
          int depth = 0;
          bool past_first_arg = false;
          for (std::size_t j = i + 1; j < close; ++j) {
            const std::string& a = tok(j).text;
            if (a == "<") ++depth;
            if (a == ">") --depth;
            if (a == "," && depth == 1) past_first_arg = true;
            if (a == "*" && (comparator || !past_first_arg)) {
              report(kPointerKey, t.line,
                     "'" + t.text +
                         "' ordered/keyed on a pointer: pointer values "
                         "vary run to run; key on stable ids instead");
              break;
            }
          }
        }
      }
    }
  }

  // --- scope machine + declaration rules ----------------------------------

  struct ScopeFrame {
    Scope kind;
    std::vector<std::size_t> saved_stmt;  // for kInit
  };

  Scope current() const {
    return stack_.empty() ? Scope::kNamespace : stack_.back().kind;
  }

  bool stmt_has(const char* ident) const {
    for (const std::size_t k : stmt_) {
      if (tok(k).text == ident) return true;
    }
    return false;
  }

  /// True if the statement has a '(' at template-angle depth 0 — i.e. it
  /// declares or defines something callable.
  bool stmt_has_depth0_paren() const {
    int angle = 0;
    for (const std::size_t k : stmt_) {
      const std::string& t = tok(k).text;
      if (t == "<") ++angle;
      if (t == ">" && angle > 0) --angle;
      if (t == "(" && angle == 0) return true;
    }
    return false;
  }

  void scope_step(std::size_t i) {
    const std::string& t = tok(i).text;
    if (t == "{") {
      ScopeFrame frame;
      const Scope parent = current();
      if (parent == Scope::kFunction || parent == Scope::kBlock ||
          parent == Scope::kInit || parent == Scope::kEnum) {
        frame.kind = Scope::kBlock;
      } else if (stmt_has("namespace")) {
        frame.kind = Scope::kNamespace;
      } else if (stmt_has("enum")) {
        frame.kind = Scope::kEnum;
      } else if (stmt_has_depth0_paren()) {
        frame.kind = Scope::kFunction;
      } else if (stmt_has("class") || stmt_has("struct") ||
                 stmt_has("union")) {
        frame.kind = Scope::kClass;
      } else if (!stmt_.empty()) {
        frame.kind = Scope::kInit;  // brace initializer of a declaration
        frame.saved_stmt = stmt_;
      } else {
        frame.kind = Scope::kBlock;
      }
      stack_.push_back(std::move(frame));
      stmt_.clear();
      return;
    }
    if (t == "}") {
      if (!stack_.empty()) {
        if (stack_.back().kind == Scope::kInit) {
          stmt_ = stack_.back().saved_stmt;
        } else {
          stmt_.clear();
        }
        stack_.pop_back();
      }
      return;
    }
    if (t == ";") {
      if (current() == Scope::kNamespace) analyze_namespace_decl();
      if (current() == Scope::kClass) analyze_member_decl();
      stmt_.clear();
      return;
    }
    stmt_.push_back(i);
  }

  void analyze_namespace_decl() {
    if (cat_ != Category::kSrc || stmt_.empty()) return;
    // mutable-global: a namespace-scope variable definition that is not
    // constant. Type definitions, aliases, templates and anything
    // callable are excluded.
    for (const char* skip :
         {"const", "constexpr", "consteval", "using", "typedef",
          "namespace", "friend", "template", "static_assert", "operator",
          "class", "struct", "union", "enum", "extern", "concept",
          "requires"}) {
      if (stmt_has(skip)) return;
    }
    if (stmt_has_depth0_paren()) return;  // function declaration
    bool has_ident = false;
    for (const std::size_t k : stmt_) {
      if (tok(k).is_ident) {
        has_ident = true;
        break;
      }
    }
    if (!has_ident) return;
    report(kMutableGlobal, tok(stmt_.front()).line,
           "mutable namespace-scope variable (includes static/thread_local "
           "storage): shared state outlives a run and breaks replay; pass "
           "state explicitly or make it constexpr");
  }

  void analyze_member_decl() {
    if (cat_ != Category::kSrc || stmt_.empty()) return;
    // std-function-member: `std::function<...>` stored in a class (a data
    // member or a class-scope alias that members are declared with).
    // Parameters of member function declarations are fine — those show a
    // '(' outside the template argument list.
    for (std::size_t s = 0; s + 3 < stmt_.size(); ++s) {
      if (tok(stmt_[s]).text != "std" || tok(stmt_[s + 1]).text != "::" ||
          tok(stmt_[s + 2]).text != "function" ||
          tok(stmt_[s + 3]).text != "<") {
        continue;
      }
      // Find the matching '>' within the statement.
      int depth = 0;
      std::size_t close = stmt_.size();
      for (std::size_t j = s + 3; j < stmt_.size(); ++j) {
        const std::string& t = tok(stmt_[j]).text;
        if (t == "<") ++depth;
        if (t == ">" && --depth == 0) {
          close = j;
          break;
        }
      }
      bool paren_outside = false;
      for (std::size_t j = 0; j < stmt_.size(); ++j) {
        if (j >= s + 3 && j <= close) continue;
        if (tok(stmt_[j]).text == "(") {
          paren_outside = true;
          break;
        }
      }
      if (!paren_outside) {
        report(kStdFunctionMember, tok(stmt_[s]).line,
               "std::function stored in a class: each assignment may heap-"
               "allocate and every call is double-indirect; use "
               "util::InlineFunction (fixed capacity, never allocates)");
        return;
      }
    }
  }

  const std::string& path_;
  Category cat_;
  const AllowSet& allows_;
  std::vector<Finding>& findings_;
  const std::vector<Token>* tokens_ = nullptr;
  std::vector<ScopeFrame> stack_;
  std::vector<std::size_t> stmt_;
  std::set<std::string> reported_;
  const bool stream_rule_applies_;
};

}  // namespace

const std::vector<RuleInfo>& rule_table() { return kRules; }

bool rule_exists(std::string_view rule) {
  for (const RuleInfo& r : kRules) {
    if (rule == r.id) return true;
  }
  return false;
}

Category category_for_path(const std::string& path) {
  Category cat = Category::kSrc;  // unknown trees get the strictest rules
  std::string component;
  std::size_t best = std::string::npos;
  auto consider = [&](const std::string& name, Category c) {
    // Rightmost path *component* match wins.
    std::size_t pos = std::string::npos;
    std::size_t from = 0;
    while (true) {
      const std::size_t p = path.find(name, from);
      if (p == std::string::npos) break;
      const bool left_ok = p == 0 || path[p - 1] == '/' || path[p - 1] == '\\';
      const std::size_t after = p + name.size();
      const bool right_ok = after == path.size() || path[after] == '/' ||
                            path[after] == '\\';
      if (left_ok && right_ok) pos = p;
      from = p + 1;
    }
    if (pos != std::string::npos && (best == std::string::npos || pos > best)) {
      best = pos;
      cat = c;
      component = name;
    }
  };
  consider("src", Category::kSrc);
  consider("bench", Category::kBench);
  consider("tests", Category::kTests);
  return cat;
}

std::vector<Finding> lint_source(const std::string& path,
                                 std::string_view text, Category category,
                                 FileSet& files) {
  std::vector<Finding> findings;
  AllowSet allows;
  const std::string clean = strip(path, std::string(text), allows, findings);
  const std::vector<Token> tokens = tokenize(clean);
  Scanner scanner(path, category, allows, findings);
  scanner.run(tokens);
  lint_flow(path, tokens, text, category, allows, files, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lint_source(const std::string& path,
                                 std::string_view text, Category category) {
  FileSet files;
  files.add_repo_roots_for(path);
  return lint_source(path, text, category, files);
}

bool lint_file(const std::string& path, const Category* forced,
               std::vector<Finding>& out, FileSet* files) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const Category cat = forced ? *forced : category_for_path(path);
  std::vector<Finding> f;
  if (files) {
    files->add_repo_roots_for(path);
    f = lint_source(path, buf.str(), cat, *files);
  } else {
    f = lint_source(path, buf.str(), cat);
  }
  out.insert(out.end(), f.begin(), f.end());
  return true;
}

}  // namespace rrsim::lint
