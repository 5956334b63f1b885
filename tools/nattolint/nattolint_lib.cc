#include "nattolint_lib.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace nattolint {
namespace {

// ---------------------------------------------------------------------------
// Small string/path helpers.
// ---------------------------------------------------------------------------

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Normalizes a path for textual matching: backslashes to slashes, strips
// leading "./".
std::string NormPath(std::string p) {
  std::replace(p.begin(), p.end(), '\\', '/');
  while (HasPrefix(p, "./")) p = p.substr(2);
  return p;
}

// True when `norm` lives under a directory (chain) named `dir`, either at
// the front of the path or anywhere inside it.
bool PathContainsDir(const std::string& norm, const std::string& dir) {
  if (HasPrefix(norm, dir + "/")) return true;
  return norm.find("/" + dir + "/") != std::string::npos;
}

bool IsTranslationUnit(const std::string& norm) {
  return HasSuffix(norm, ".cc") || HasSuffix(norm, ".cpp");
}

bool IsHeader(const std::string& norm) {
  return HasSuffix(norm, ".h") || HasSuffix(norm, ".hpp");
}

bool IsSourceFile(const std::string& norm) {
  return IsTranslationUnit(norm) || IsHeader(norm);
}

// ---------------------------------------------------------------------------
// Suppressions. Markers live in comment text, which the tokenizer keeps per
// line, so suppression survives the code/comment split.
// ---------------------------------------------------------------------------

// Parses the NOLINT rule list out of one line's comment text. Returns true
// if `rule` is suppressed: bare NOLINT and NOLINT(natto-*) suppress every
// natto rule, NOLINT(natto-foo) only that one. `marker` is "NOLINT" or
// "NOLINTNEXTLINE". A malformed list (no closing paren) suppresses
// leniently.
bool CommentSuppresses(const std::string& comment, const std::string& marker,
                       const std::string& rule) {
  size_t pos = 0;
  while ((pos = comment.find(marker, pos)) != std::string::npos) {
    size_t end = pos + marker.size();
    // Reject a longer marker containing this one (NOLINT inside
    // NOLINTNEXTLINE): the char after must not extend the identifier.
    if (end < comment.size() && IsIdentChar(comment[end])) {
      pos = end;
      continue;
    }
    if (end >= comment.size() || comment[end] != '(') {
      return true;  // bare marker: suppress everything
    }
    size_t close = comment.find(')', end);
    if (close == std::string::npos) return true;  // malformed: be lenient
    std::string list = comment.substr(end + 1, close - end - 1);
    std::istringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      size_t a = item.find_first_not_of(" \t");
      size_t b = item.find_last_not_of(" \t");
      if (a == std::string::npos) continue;
      item = item.substr(a, b - a + 1);
      if (item == rule || item == "natto-*") return true;
    }
    pos = close;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Token-stream helpers shared by the rules.
// ---------------------------------------------------------------------------

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// Net template-angle depth change contributed by one token. Comparison and
// compound-assignment operators that merely contain '<'/'>' characters are
// neutral; "<<"/">>" count double because nested template argument lists
// close with a single ">>" token.
int AngleDelta(const Token& t) {
  if (t.kind != TokKind::kPunct) return 0;
  if (t.text == "<") return 1;
  if (t.text == ">") return -1;
  if (t.text == "<<") return 2;
  if (t.text == ">>") return -2;
  return 0;
}

// Given `toks[open]` == "<", returns the index of the token that closes the
// template argument list (possibly a ">>" closing two levels at once), or
// toks.size() if unbalanced.
size_t MatchAngle(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t k = open; k < toks.size(); ++k) {
    depth += AngleDelta(toks[k]);
    if (depth <= 0) return k;
  }
  return toks.size();
}

// Concatenates token spellings over [begin, end) — used to echo expressions
// back in diagnostics ("st.votes"). Adjacent identifiers get a space so the
// echo stays readable; punctuation joins tightly.
std::string SpanText(const std::vector<Token>& toks, size_t begin,
                     size_t end) {
  std::string out;
  for (size_t k = begin; k < end && k < toks.size(); ++k) {
    if (!out.empty() && toks[k].kind != TokKind::kPunct &&
        toks[k - 1].kind != TokKind::kPunct) {
      out += ' ';
    }
    out += toks[k].text;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Unordered-container name collection (context for natto-unordered-iter).
// ---------------------------------------------------------------------------

const char* const kUnorderedTypes[] = {"unordered_map", "unordered_set",
                                       "unordered_multimap",
                                       "unordered_multiset"};

bool IsUnorderedTypeName(const std::string& text) {
  for (const char* name : kUnorderedTypes) {
    if (text == name) return true;
  }
  return false;
}

void CollectUnorderedNamesInto(const std::vector<Token>& toks,
                               std::set<std::string>* out) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !IsUnorderedTypeName(toks[i].text))
      continue;
    if (!IsPunct(toks[i + 1], "<")) continue;
    size_t close = MatchAngle(toks, i + 1);
    if (close >= toks.size()) continue;
    size_t j = close + 1;
    // `::iterator`, `::value_type` etc. are type mentions, not declarations.
    if (j < toks.size() && IsPunct(toks[j], "::")) continue;
    // Walk the declarator list: `unordered_map<K, V> a, *b, &c;`.
    while (j < toks.size()) {
      while (j < toks.size() && (IsPunct(toks[j], "*") ||
                                 IsPunct(toks[j], "&") ||
                                 IsPunct(toks[j], "&&"))) {
        ++j;
      }
      if (j >= toks.size() || toks[j].kind != TokKind::kIdent) break;
      // A '(' after the name means a function declaration returning the
      // container, not a variable of that type.
      if (j + 1 < toks.size() && IsPunct(toks[j + 1], "(")) break;
      out->insert(toks[j].text);
      if (j + 1 < toks.size() && IsPunct(toks[j + 1], ",")) {
        j += 2;
        continue;
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Range-for target extraction (natto-unordered-iter).
// ---------------------------------------------------------------------------

struct IterTarget {
  std::string name;     // trailing identifier of the range expression
  bool member = false;  // accessed via . / -> or named with a trailing '_'
  std::string expr;     // the expression as written, for the diagnostic
};

// Inspects the range expression tokens [begin, end) of a range-for. Returns
// an empty name for expressions we cannot attribute to a variable
// (function-call results, indexing) — those are skipped, not flagged.
IterTarget ClassifyRangeExpr(const std::vector<Token>& toks, size_t begin,
                             size_t end) {
  IterTarget t;
  for (size_t k = begin; k < end; ++k) {
    if (IsPunct(toks[k], "(") || IsPunct(toks[k], "[")) return t;
  }
  size_t b = begin;
  while (b < end && (IsPunct(toks[b], "*") || IsPunct(toks[b], "&"))) ++b;
  if (b >= end) return t;
  // Find the last member-access operator, if any.
  size_t last_access = end;
  for (size_t k = b; k < end; ++k) {
    if (IsPunct(toks[k], ".") || IsPunct(toks[k], "->")) last_access = k;
  }
  if (last_access != end) {
    if (last_access + 2 != end ||
        toks[last_access + 1].kind != TokKind::kIdent) {
      return t;
    }
    t.name = toks[last_access + 1].text;
    t.member = true;
  } else {
    if (b + 1 != end || toks[b].kind != TokKind::kIdent) return t;
    t.name = toks[b].text;
    t.member = HasSuffix(t.name, "_");
  }
  t.expr = SpanText(toks, begin, end);
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------------

TokenizedFile Tokenize(const std::string& content) {
  TokenizedFile out;
  size_t lines = 1 + static_cast<size_t>(
                         std::count(content.begin(), content.end(), '\n'));
  out.comments.assign(lines, "");
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;
  auto comment_char = [&](char c) {
    out.comments[static_cast<size_t>(line) - 1] += c;
  };
  // Multi-character punctuators, longest first so maximal munch wins
  // ("<<=" before "<<" before "<").
  static const char* const kPuncts[] = {
      "<<=", ">>=", "->*", "...", "<=>", "::", "->", "++", "--", "<<", ">>",
      "<=",  ">=",  "==",  "!=",  "&&",  "||", "+=", "-=", "*=", "/=", "%=",
      "^=",  "&=",  "|=",  "##",  ".*"};

  while (i < n) {
    char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      i += 2;
      while (i < n && content[i] != '\n') comment_char(content[i++]);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      i += 2;
      while (i < n &&
             !(content[i] == '*' && i + 1 < n && content[i + 1] == '/')) {
        if (content[i] == '\n') {
          ++line;
        } else {
          comment_char(content[i]);
        }
        ++i;
      }
      i = (i + 2 <= n) ? i + 2 : n;
      continue;
    }
    if (IsIdentStart(c)) {
      Token t{TokKind::kIdent, "", line};
      while (i < n && IsIdentChar(content[i])) t.text += content[i++];
      // Raw string literal: the "identifier" was really an encoding prefix.
      if (i < n && content[i] == '"' &&
          (t.text == "R" || t.text == "u8R" || t.text == "uR" ||
           t.text == "LR")) {
        ++i;  // opening quote
        std::string delim;
        while (i < n && content[i] != '(' && content[i] != '\n') {
          delim += content[i++];
        }
        if (i < n && content[i] == '(') {
          ++i;
          const std::string close = ")" + delim + "\"";
          Token s{TokKind::kString, "", line};
          while (i < n && content.compare(i, close.size(), close) != 0) {
            if (content[i] == '\n') ++line;
            s.text += content[i++];
          }
          if (i < n) i += close.size();
          out.tokens.push_back(std::move(s));
        }
        continue;
      }
      out.tokens.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(content[i + 1])))) {
      Token t{TokKind::kNumber, "", line};
      while (i < n) {
        char d = content[i];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          t.text += d;
          ++i;
        } else if ((d == '+' || d == '-') && !t.text.empty() &&
                   (t.text.back() == 'e' || t.text.back() == 'E' ||
                    t.text.back() == 'p' || t.text.back() == 'P')) {
          t.text += d;
          ++i;
        } else {
          break;
        }
      }
      out.tokens.push_back(std::move(t));
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      Token t{quote == '"' ? TokKind::kString : TokKind::kCharLit, "", line};
      ++i;
      while (i < n && content[i] != quote) {
        if (content[i] == '\n') break;  // unterminated: stop at end of line
        if (content[i] == '\\' && i + 1 < n) {
          t.text += content[i];
          t.text += content[i + 1];
          i += 2;
          continue;
        }
        t.text += content[i++];
      }
      if (i < n && content[i] == quote) ++i;
      out.tokens.push_back(std::move(t));
      continue;
    }
    // Punctuation: maximal munch.
    Token t{TokKind::kPunct, "", line};
    for (const char* p : kPuncts) {
      size_t len = std::strlen(p);
      if (content.compare(i, len, p) == 0) {
        t.text = p;
        break;
      }
    }
    if (t.text.empty()) t.text = std::string(1, c);
    i += t.text.size();
    out.tokens.push_back(std::move(t));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Public helpers.
// ---------------------------------------------------------------------------

std::set<std::string> CollectUnorderedNames(const std::string& content) {
  std::set<std::string> names;
  TokenizedFile tf = Tokenize(content);
  CollectUnorderedNamesInto(tf.tokens, &names);
  return names;
}

const std::vector<RuleDoc>& Rules() {
  static const std::vector<RuleDoc> kRules = {
      {"natto-wallclock",
       "wall-clock APIs outside src/sim/; simulated code takes time from "
       "sim::Clock"},
      {"natto-ambient-rng",
       "ambient randomness (std::rand, mt19937, random_device, ...) outside "
       "common/rng.h; draw from a seeded common::Rng stream"},
      {"natto-mutable-static",
       "mutable static state; cells must be instance-isolated, so thread a "
       "dependency instead"},
      {"natto-unordered-iter",
       "range-for over an unordered container in a translation unit; "
       "iteration order is nondeterministic"},
      {"natto-check-side-effect",
       "NATTO_CHECK/NATTO_DCHECK condition with side effects; NDEBUG builds "
       "would skip them"},
      {"natto-batch-bypass",
       "direct ->ScheduleAt(/->ScheduleAtSite( in src/net translation units "
       "bypasses the link batching flush queue"},
      {"natto-site-bypass",
       "direct ->ScheduleAt( in engine/raft translation units bypasses "
       "site-lane routing (net::Node::After / ScheduleAtSite); NOLINT only "
       "for justified global-lane schedules"},
      {"natto-pointer-key",
       "ordered std::map/std::set keyed by a pointer; iteration follows "
       "allocation addresses, which differ run to run"},
      {"natto-pointer-repr",
       // The doc string names the banned token itself.
       // NOLINTNEXTLINE(natto-pointer-repr)
       "pointer value leaking into output or hashes (%p, std::hash over a "
       "pointer, reinterpret_cast to [u]intptr_t)"},
      {"natto-env-read",
       "getenv outside tools/ and the sanctioned harness entry points; "
       "library behavior must come from explicit options"},
      {"natto-thread-shared",
       "thread_local/volatile state in src/ translation units; state must be "
       "owned per cell, not per thread. A `nattolint: synchronized-tu("
       "<reason>)` file comment permits thread_local on lines that carry a "
       "justifying comment (volatile stays banned)"},
  };
  return kRules;
}

void SortViolations(std::vector<Violation>* violations) {
  std::sort(violations->begin(), violations->end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

std::string FormatViolation(const Violation& v) {
  std::ostringstream ss;
  ss << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message;
  return ss.str();
}

// ---------------------------------------------------------------------------
// The linting pass proper: every rule walks the same token stream.
// ---------------------------------------------------------------------------

std::vector<Violation> LintContent(
    const std::string& path, const std::string& content,
    const std::set<std::string>& header_unordered_names) {
  const std::string norm = NormPath(path);
  const bool is_tu = IsTranslationUnit(norm);
  const bool wallclock_applies =
      !(PathContainsDir(norm, "src/sim") || HasPrefix(norm, "sim/"));
  const bool rng_applies =
      !(HasSuffix(norm, "/common/rng.h") || norm == "common/rng.h");
  const bool batch_applies =
      is_tu && (PathContainsDir(norm, "src/net") || HasPrefix(norm, "net/"));
  // Engine protocol code (including the engines' shared core in
  // src/txn/engine_core.cc) and the raft layer run on per-site lanes under
  // the site-parallel kernel; their timers must route through
  // net::Node::After / AtLocalTime (site-routed) or name a lane with
  // ScheduleAtSite.
  const bool site_applies =
      is_tu &&
      (PathContainsDir(norm, "src/carousel") || HasPrefix(norm, "carousel/") ||
       PathContainsDir(norm, "src/spanner") || HasPrefix(norm, "spanner/") ||
       PathContainsDir(norm, "src/tapir") || HasPrefix(norm, "tapir/") ||
       PathContainsDir(norm, "src/natto") || HasPrefix(norm, "natto/") ||
       PathContainsDir(norm, "src/raft") || HasPrefix(norm, "raft/") ||
       HasSuffix(norm, "src/txn/engine_core.cc") ||
       norm == "txn/engine_core.cc");
  const bool env_applies = !PathContainsDir(norm, "tools");
  const bool thread_applies =
      is_tu && (PathContainsDir(norm, "src") || HasPrefix(norm, "src/"));

  TokenizedFile tf = Tokenize(content);
  const std::vector<Token>& toks = tf.tokens;
  const size_t n = toks.size();

  // File-level annotation `nattolint: synchronized-tu(<reason>)`, placed in
  // any comment (by convention the first line of the TU). It declares the
  // whole TU an explicitly synchronized component — a worker pool or lock
  // protocol reviewed as a unit — and relaxes natto-thread-shared for
  // thread_local only: each thread_local line must still carry a comment
  // justifying that specific use. volatile stays banned, and an annotation
  // with an empty reason is ignored (the annotation must say why).
  bool synchronized_tu = false;
  for (const std::string& c : tf.comments) {
    size_t pos = c.find("nattolint:");
    if (pos == std::string::npos) continue;
    size_t mark = c.find("synchronized-tu(", pos);
    if (mark == std::string::npos) continue;
    size_t open = mark + std::strlen("synchronized-tu(");
    size_t close = c.find(')', open);
    if (close == std::string::npos) continue;
    for (size_t k = open; k < close; ++k) {
      if (!std::isspace(static_cast<unsigned char>(c[k]))) {
        synchronized_tu = true;
        break;
      }
    }
  }

  std::vector<Violation> out;
  std::set<std::pair<std::string, int>> reported;
  auto suppressed = [&](int ln, const char* rule) {
    size_t idx = static_cast<size_t>(ln) - 1;
    if (idx < tf.comments.size() &&
        CommentSuppresses(tf.comments[idx], "NOLINT", rule)) {
      return true;
    }
    if (idx >= 1 && idx - 1 < tf.comments.size() &&
        CommentSuppresses(tf.comments[idx - 1], "NOLINTNEXTLINE", rule)) {
      return true;
    }
    return false;
  };
  // One finding per (rule, line): several banned tokens on a line are the
  // same mistake, and the dedupe keeps diffs stable.
  auto add = [&](int ln, const char* rule, std::string message) {
    if (suppressed(ln, rule)) return;
    if (!reported.insert({rule, ln}).second) return;
    out.push_back(Violation{path, ln, rule, std::move(message)});
  };

  // --- natto-wallclock -----------------------------------------------------
  if (wallclock_applies) {
    static const char* const kWallclock[] = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "localtime",
        "gmtime",       "mktime",       "strftime"};
    for (size_t i = 0; i < n; ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      bool hit = false;
      for (const char* w : kWallclock) {
        if (toks[i].text == w) {
          hit = true;
          break;
        }
      }
      if (!hit && toks[i].text == "time" && i + 1 < n &&
          IsPunct(toks[i + 1], "(")) {
        // Bare `time(...)` is libc's wall clock; a member or qualified call
        // (`s.time(0)`, `Foo::time()`) is somebody's own API.
        bool member =
            i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->") ||
                      IsPunct(toks[i - 1], "::"));
        hit = !member;
      }
      if (hit) {
        add(toks[i].line, "natto-wallclock",
            "uses wall-clock API '" + toks[i].text +
                "'; simulated code must take time from sim::Clock");
      }
    }
  }

  // --- natto-ambient-rng ---------------------------------------------------
  if (rng_applies) {
    static const char* const kRngExact[] = {"srand", "knuth_b"};
    static const char* const kRngPrefix[] = {
        "mt19937",       "ranlux24",      "ranlux48",
        "minstd_rand",   "random_device", "default_random_engine"};
    for (size_t i = 0; i < n; ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const std::string& text = toks[i].text;
      bool hit = false;
      for (const char* w : kRngExact) {
        if (text == w) hit = true;
      }
      for (const char* w : kRngPrefix) {
        if (HasPrefix(text, w)) hit = true;
      }
      if (text == "rand" && i >= 2 && IsPunct(toks[i - 1], "::") &&
          IsIdent(toks[i - 2], "std")) {
        hit = true;
      }
      if (hit) {
        add(toks[i].line, "natto-ambient-rng",
            "uses ambient RNG '" + text +
                "'; draw from a seeded common::Rng stream instead");
      }
    }
  }

  // --- natto-mutable-static ------------------------------------------------
  for (size_t i = 0; i < n; ++i) {
    if (!IsIdent(toks[i], "static")) continue;
    size_t j = i + 1;
    while (j < n &&
           (IsIdent(toks[j], "inline") || IsIdent(toks[j], "thread_local"))) {
      ++j;
    }
    if (j < n && (IsIdent(toks[j], "const") || IsIdent(toks[j], "constexpr") ||
                  IsIdent(toks[j], "constinit"))) {
      continue;
    }
    // Scan for the first structural token at template depth 0: '(' means a
    // function, '=', '{' or ';' means a variable definition.
    int depth = 0;
    for (size_t k = j; k < n; ++k) {
      const Token& t = toks[k];
      if (t.kind == TokKind::kPunct && depth == 0) {
        if (t.text == "(") break;
        if (t.text == "=" || t.text == "{" || t.text == ";") {
          add(toks[i].line, "natto-mutable-static",
              "mutable static state; results must not depend on process "
              "lifetime — thread the state through an owning object");
          break;
        }
      }
      depth += AngleDelta(t);
      if (depth < 0) depth = 0;
    }
  }

  // --- natto-unordered-iter ------------------------------------------------
  if (is_tu) {
    std::set<std::string> local_names;
    CollectUnorderedNamesInto(toks, &local_names);
    std::set<std::string> all_names = local_names;
    all_names.insert(header_unordered_names.begin(),
                     header_unordered_names.end());
    for (size_t i = 0; i + 1 < n; ++i) {
      if (!IsIdent(toks[i], "for") || !IsPunct(toks[i + 1], "(")) continue;
      int depth = 1;
      size_t colon = 0;
      bool has_colon = false;
      size_t k = i + 2;
      for (; k < n; ++k) {
        const Token& t = toks[k];
        if (t.kind != TokKind::kPunct) continue;
        if (t.text == "(" || t.text == "[" || t.text == "{") {
          ++depth;
        } else if (t.text == ")" || t.text == "]" || t.text == "}") {
          if (--depth == 0) break;
        } else if (t.text == ":" && depth == 1 && !has_colon) {
          colon = k;
          has_colon = true;
        }
      }
      if (k >= n || !has_colon) continue;
      IterTarget target = ClassifyRangeExpr(toks, colon + 1, k);
      if (target.name.empty()) continue;
      // Members resolve against the combined name context; a plain local
      // name only counts if this file declared it unordered (a same-named
      // ordered local shadows any header member).
      bool flagged = target.member ? all_names.count(target.name) > 0
                                   : local_names.count(target.name) > 0;
      if (flagged) {
        add(toks[i].line, "natto-unordered-iter",
            "range-for over unordered container '" + target.expr +
                "'; iteration order is nondeterministic — copy keys to a "
                "sorted vector first");
      }
    }
  }

  // --- natto-check-side-effect ---------------------------------------------
  for (size_t i = 0; i + 1 < n; ++i) {
    if (!(IsIdent(toks[i], "NATTO_CHECK") || IsIdent(toks[i], "NATTO_DCHECK")))
      continue;
    if (!IsPunct(toks[i + 1], "(")) continue;
    int depth = 1;
    size_t k = i + 2;
    for (; k < n && depth > 0; ++k) {
      if (IsPunct(toks[k], "(")) ++depth;
      if (IsPunct(toks[k], ")")) --depth;
    }
    static const char* const kMutators[] = {"=",  "+=", "-=",  "*=",  "/=",
                                            "%=", "&=", "|=",  "^=",  "<<=",
                                            ">>=", "++", "--"};
    for (size_t a = i + 2; a + 1 < k; ++a) {
      const Token& t = toks[a];
      if (t.kind != TokKind::kPunct) continue;
      bool mutates = false;
      for (const char* m : kMutators) {
        if (t.text == m) mutates = true;
      }
      // `[=]` is a lambda capture default, not an assignment.
      if (mutates && t.text == "=" && a > 0 && IsPunct(toks[a - 1], "[")) {
        mutates = false;
      }
      if (mutates) {
        add(toks[i].line, "natto-check-side-effect",
            toks[i].text +
                " condition has side effects; NDEBUG builds would skip "
                "them — hoist the mutation out of the check");
        break;
      }
    }
  }

  // --- natto-batch-bypass --------------------------------------------------
  if (batch_applies) {
    for (size_t i = 0; i + 2 < n; ++i) {
      if (IsPunct(toks[i], "->") &&
          (IsIdent(toks[i + 1], "ScheduleAt") ||
           IsIdent(toks[i + 1], "ScheduleAtSite")) &&
          IsPunct(toks[i + 2], "(")) {
        add(toks[i + 1].line, "natto-batch-bypass",
            "schedules directly via ->" + toks[i + 1].text +
                "(; src/net code must go through the link batching flush "
                "queue");
      }
    }
  }

  // --- natto-site-bypass ---------------------------------------------------
  if (site_applies) {
    for (size_t i = 0; i + 2 < n; ++i) {
      if (IsPunct(toks[i], "->") && IsIdent(toks[i + 1], "ScheduleAt") &&
          IsPunct(toks[i + 2], "(")) {
        add(toks[i + 1].line, "natto-site-bypass",
            "schedules directly via ->ScheduleAt(; engine and raft timers "
            "must route through net::Node::After/AtLocalTime or name the "
            "owning lane with ScheduleAtSite");
      }
    }
  }

  // --- natto-pointer-key ---------------------------------------------------
  for (size_t i = 0; i + 1 < n; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& text = toks[i].text;
    const bool is_map = (text == "map" || text == "multimap");
    const bool is_set = (text == "set" || text == "multiset");
    if (!is_map && !is_set) continue;
    if (!(i >= 2 && IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std")))
      continue;
    if (!IsPunct(toks[i + 1], "<")) continue;
    size_t close = MatchAngle(toks, i + 1);
    if (close >= n) continue;
    // Split the template arguments on top-level commas.
    std::vector<std::pair<size_t, size_t>> args;
    size_t arg_begin = i + 2;
    int angle = 1;
    int paren = 0;
    for (size_t k = i + 2; k <= close; ++k) {
      const Token& t = toks[k];
      if (IsPunct(t, "(")) ++paren;
      if (IsPunct(t, ")")) --paren;
      if (k == close) {
        args.push_back({arg_begin, k});
        break;
      }
      if (IsPunct(t, ",") && angle == 1 && paren == 0) {
        args.push_back({arg_begin, k});
        arg_begin = k + 1;
      }
      angle += AngleDelta(t);
    }
    if (args.empty()) continue;
    // An explicit comparator argument is the sanctioned escape: the author
    // has taken ordering into their own hands.
    const bool comparator_given = is_map ? args.size() >= 3 : args.size() >= 2;
    if (comparator_given) continue;
    bool key_has_ptr = false;
    for (size_t k = args[0].first; k < args[0].second; ++k) {
      if (IsPunct(toks[k], "*")) key_has_ptr = true;
    }
    if (key_has_ptr) {
      add(toks[i].line, "natto-pointer-key",
          "ordered std::" + text +
              " keyed by a pointer; iteration follows allocation addresses "
              "— key by a stable id or pass an explicit comparator");
    }
  }

  // --- natto-pointer-repr --------------------------------------------------
  for (size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    // The needle the rule searches for.
    // NOLINTNEXTLINE(natto-pointer-repr)
    if (t.kind == TokKind::kString && t.text.find("%p") != std::string::npos) {
      add(t.line, "natto-pointer-repr",
          // The diagnostic quotes the banned token itself.
          // NOLINTNEXTLINE(natto-pointer-repr)
          "\"%p\" formats a raw pointer value; addresses differ run to run — "
          "print a stable id instead");
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "hash" && i >= 2 && IsPunct(toks[i - 1], "::") &&
        IsIdent(toks[i - 2], "std") && i + 1 < n &&
        IsPunct(toks[i + 1], "<")) {
      size_t close = MatchAngle(toks, i + 1);
      for (size_t k = i + 2; k < close && k < n; ++k) {
        if (IsPunct(toks[k], "*")) {
          add(t.line, "natto-pointer-repr",
              "std::hash over a pointer type; hash values track allocation "
              "addresses — hash a stable id instead");
          break;
        }
      }
      continue;
    }
    if (t.text == "reinterpret_cast" && i + 1 < n &&
        IsPunct(toks[i + 1], "<")) {
      size_t close = MatchAngle(toks, i + 1);
      for (size_t k = i + 2; k < close && k < n; ++k) {
        if (IsIdent(toks[k], "uintptr_t") || IsIdent(toks[k], "intptr_t")) {
          add(t.line, "natto-pointer-repr",
              "reinterpret_cast of a pointer to an integer; the value is an "
              "allocation address — use a stable id instead");
          break;
        }
      }
    }
  }

  // --- natto-env-read ------------------------------------------------------
  if (env_applies) {
    for (size_t i = 0; i + 1 < n; ++i) {
      if (!(IsIdent(toks[i], "getenv") || IsIdent(toks[i], "secure_getenv")))
        continue;
      if (!IsPunct(toks[i + 1], "(")) continue;
      add(toks[i].line, "natto-env-read",
          "reads the environment with '" + toks[i].text +
              "'; library behavior must come from explicit options — only "
              "the harness entry points may read env (with a NOLINT)");
    }
  }

  // --- natto-thread-shared -------------------------------------------------
  if (thread_applies) {
    for (size_t i = 0; i < n; ++i) {
      if (IsIdent(toks[i], "thread_local")) {
        size_t idx = static_cast<size_t>(toks[i].line) - 1;
        bool commented = idx < tf.comments.size() && !tf.comments[idx].empty();
        if (synchronized_tu && commented) continue;
        if (synchronized_tu) {
          add(toks[i].line, "natto-thread-shared",
              "thread_local in a synchronized-tu without a same-line comment "
              "justifying this use; annotate the line or hoist the state");
        } else {
          add(toks[i].line, "natto-thread-shared",
              "thread_local state keys data to worker threads; cells must "
              "own their state so results do not depend on the thread "
              "schedule");
        }
      } else if (IsIdent(toks[i], "volatile")) {
        add(toks[i].line, "natto-thread-shared",
            "volatile shared state suggests cross-thread signaling; cells "
            "are single-threaded — use explicit ownership instead");
      }
    }
  }

  SortViolations(&out);
  return out;
}

// ---------------------------------------------------------------------------
// Tree walking.
// ---------------------------------------------------------------------------

std::vector<Violation> LintTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<Violation> out;
  // Relative directory -> relative file paths in that directory.
  std::map<std::string, std::vector<std::string>> by_dir;
  for (const char* top : {"src", "bench", "tools"}) {
    fs::path base = fs::path(root) / top;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      std::string rel =
          NormPath(fs::relative(it->path(), root, ec).generic_string());
      if (!IsSourceFile(rel)) continue;
      size_t slash = rel.find_last_of('/');
      std::string dir = (slash == std::string::npos) ? "" : rel.substr(0, slash);
      by_dir[dir].push_back(rel);
    }
  }
  auto read_file = [&](const std::string& rel, std::string* content) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *content = ss.str();
    return true;
  };
  for (auto& [dir, files] : by_dir) {
    (void)dir;
    std::sort(files.begin(), files.end());
    // Union of names declared unordered in this directory's headers: the
    // member-name context for its translation units.
    std::set<std::string> header_names;
    for (const std::string& rel : files) {
      if (!IsHeader(rel)) continue;
      std::string content;
      if (read_file(rel, &content)) {
        std::set<std::string> names = CollectUnorderedNames(content);
        header_names.insert(names.begin(), names.end());
      }
    }
    for (const std::string& rel : files) {
      std::string content;
      if (!read_file(rel, &content)) continue;
      std::vector<Violation> v =
          LintContent(rel, content,
                      IsTranslationUnit(rel) ? header_names
                                             : std::set<std::string>{});
      out.insert(out.end(), v.begin(), v.end());
    }
  }
  SortViolations(&out);
  return out;
}

}  // namespace nattolint
