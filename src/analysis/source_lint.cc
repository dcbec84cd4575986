#include "src/analysis/source_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/util/string_util.h"

namespace ddr {
namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ---------------------------------------------------------------------------
// Literal/comment stripping.
//
// All rules run over `code`, a same-length copy of the input in which
// string literals, char literals and comments are blanked to spaces
// (newlines preserved, so byte offset -> line mapping is shared with the
// original). Comment text is collected per line for the NOLINT grammar.
// Same-length matters: a banned token inside a string — this file's own
// rule tables, a test fixture, a log message — must never match.
// ---------------------------------------------------------------------------

struct StrippedSource {
  std::string code;                     // literals/comments blanked
  std::vector<std::string> comments;    // 1-based; [0] unused
  std::vector<int> line_of;             // byte offset -> 1-based line
  int line_count = 0;
};

StrippedSource Strip(std::string_view in) {
  StrippedSource out;
  out.code.assign(in.size(), ' ');
  out.line_of.assign(in.size(), 1);
  enum class State { kCode, kString, kChar, kRawString, kLine, kBlock };
  State state = State::kCode;
  std::string raw_close;  // ")delim\"" terminator of the active raw string
  int line = 1;
  out.comments.assign(2, std::string());
  auto comment_at = [&](int ln) -> std::string& {
    if (static_cast<size_t>(ln + 1) >= out.comments.size()) {
      out.comments.resize(ln + 2);
    }
    return out.comments[ln];
  };
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    out.line_of[i] = line;
    if (c == '\n') {
      out.code[i] = '\n';
      ++line;
      if (state == State::kLine || state == State::kString ||
          state == State::kChar) {
        state = State::kCode;  // line comments end; broken literals self-heal
      }
      continue;
    }
    switch (state) {
      case State::kCode: {
        const char next = i + 1 < in.size() ? in[i + 1] : '\0';
        if (c == '/' && next == '/') {
          state = State::kLine;
          break;
        }
        if (c == '/' && next == '*') {
          state = State::kBlock;
          out.line_of[i + 1] = line;
          ++i;
          break;
        }
        if (c == '"') {
          const char prev = i > 0 ? in[i - 1] : '\0';
          const char prev2 = i > 1 ? in[i - 2] : '\0';
          if (prev == 'R' && !IsWordChar(prev2)) {
            // R"delim( ... )delim"
            std::string delim;
            size_t j = i + 1;
            while (j < in.size() && in[j] != '(' && in[j] != '\n') {
              delim.push_back(in[j]);
              ++j;
            }
            raw_close = ")" + delim + "\"";
            state = State::kRawString;
            break;
          }
          out.code[i] = '"';
          state = State::kString;
          break;
        }
        if (c == '\'') {
          const char prev = i > 0 ? in[i - 1] : '\0';
          const bool hexish = std::isxdigit(static_cast<unsigned char>(prev));
          if (hexish && i + 1 < in.size() &&
              std::isxdigit(static_cast<unsigned char>(in[i + 1]))) {
            out.code[i] = c;  // digit separator: 1'000'000
            break;
          }
          out.code[i] = '\'';
          state = State::kChar;
          break;
        }
        out.code[i] = c;
        break;
      }
      case State::kString:
        if (c == '\\') {
          if (i + 1 < in.size() && in[i + 1] != '\n') {
            out.line_of[i + 1] = line;
            ++i;
          }
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          if (i + 1 < in.size() && in[i + 1] != '\n') {
            out.line_of[i + 1] = line;
            ++i;
          }
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == raw_close[0] &&
            in.compare(i, raw_close.size(), raw_close) == 0) {
          for (size_t k = 1; k < raw_close.size() && i + 1 < in.size(); ++k) {
            out.line_of[i + 1] = line;
            ++i;
          }
          state = State::kCode;
        }
        break;
      case State::kLine:
        comment_at(line).push_back(c);
        break;
      case State::kBlock:
        if (c == '*' && i + 1 < in.size() && in[i + 1] == '/') {
          out.line_of[i + 1] = line;
          ++i;
          state = State::kCode;
        } else {
          comment_at(line).push_back(c);
        }
        break;
    }
  }
  out.line_count = line;
  if (static_cast<size_t>(line + 1) >= out.comments.size()) {
    out.comments.resize(line + 2);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token matching.
// ---------------------------------------------------------------------------

// True when a match starting at `pos` begins on a word boundary. Member
// calls are excluded when `exclude_member` is set — `file.write(` and
// `out->write(` are class methods, not the raw OS call — while `::` stays
// a boundary so `::write(` and `std::time(` match.
bool BoundaryBefore(const std::string& code, size_t pos, bool exclude_member) {
  if (pos == 0) {
    return true;
  }
  const char prev = code[pos - 1];
  if (IsWordChar(prev)) {
    return false;
  }
  if (exclude_member) {
    if (prev == '.') {
      return false;
    }
    if (prev == '>' && pos >= 2 && code[pos - 2] == '-') {
      return false;
    }
  }
  return true;
}

// All boundary-respecting occurrences of `token` in the stripped code,
// as byte offsets.
std::vector<size_t> FindToken(const std::string& code, std::string_view token,
                              bool exclude_member) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    if (BoundaryBefore(code, pos, exclude_member)) {
      hits.push_back(pos);
    }
    pos += 1;
  }
  return hits;
}

bool PathContains(std::string_view path, std::string_view needle) {
  return path.find(needle) != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Rule: ddr-nondeterminism.
// ---------------------------------------------------------------------------

struct BannedToken {
  const char* token;
  const char* why;
};

constexpr BannedToken kNondeterminism[] = {
    {"rand(", "libc PRNG seeded from process state"},
    {"srand(", "libc PRNG seeding"},
    {"drand48(", "libc PRNG"},
    {"random_device", "hardware entropy source"},
    {"system_clock", "wall clock; use steady_clock for durations"},
    {"time(", "wall clock"},
    {"gettimeofday(", "wall clock"},
    {"clock_gettime(", "raw clock syscall; use std::chrono::steady_clock"},
    {"getpid(", "process id leaks into recorded bytes"},
};

void CheckNondeterminism(const StrippedSource& src, std::string_view path,
                         const LintOptions& options,
                         std::vector<LintIssue>* issues) {
  for (const std::string& allowed : options.allow) {
    if (PathContains(path, allowed)) {
      return;
    }
  }
  for (const BannedToken& banned : kNondeterminism) {
    for (size_t pos : FindToken(src.code, banned.token, /*exclude_member=*/true)) {
      issues->push_back(LintIssue{
          std::string(path), src.line_of[pos], "ddr-nondeterminism",
          StrPrintf("'%s' is a banned nondeterminism source (%s); replayed "
                    "runs must not observe it",
                    banned.token, banned.why)});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: ddr-unordered-iteration (src/trace/ only).
//
// Two passes: collect every identifier declared with an unordered
// container type in this file, then flag range-fors and .begin() walks
// over those names. Hash-order iteration in encode/index-writing code
// makes the emitted bytes depend on the allocator and the libstdc++
// version — the exact class of bug bit-identical corpora exist to rule
// out. Keyed lookup (find/erase/count) is fine and not flagged.
// ---------------------------------------------------------------------------

std::set<std::string> UnorderedNames(const StrippedSource& src) {
  std::set<std::string> names;
  for (const char* type : {"unordered_map<", "unordered_set<",
                           "unordered_multimap<", "unordered_multiset<"}) {
    for (size_t pos : FindToken(src.code, type, /*exclude_member=*/false)) {
      size_t i = pos + std::string_view(type).size();
      int depth = 1;
      while (i < src.code.size() && depth > 0) {
        if (src.code[i] == '<') {
          ++depth;
        } else if (src.code[i] == '>') {
          --depth;
        }
        ++i;
      }
      while (i < src.code.size() &&
             std::isspace(static_cast<unsigned char>(src.code[i]))) {
        ++i;
      }
      std::string name;
      while (i < src.code.size() && IsWordChar(src.code[i])) {
        name.push_back(src.code[i]);
        ++i;
      }
      // `>::iterator` and friends leave an empty name; a following '('
      // means this was a function return type, not a variable.
      while (i < src.code.size() &&
             std::isspace(static_cast<unsigned char>(src.code[i]))) {
        ++i;
      }
      if (!name.empty() && (i >= src.code.size() || src.code[i] != '(')) {
        names.insert(name);
      }
    }
  }
  return names;
}

// Does `name` appear as a whole word in code[range_begin, range_end)?
// Member prefixes (`shard->index`) are deliberately matches here.
bool NameInRange(const std::string& code, size_t range_begin, size_t range_end,
                 const std::string& name) {
  size_t pos = range_begin;
  while ((pos = code.find(name, pos)) != std::string::npos &&
         pos + name.size() <= range_end) {
    const bool left_ok = pos == 0 || !IsWordChar(code[pos - 1]);
    const size_t after = pos + name.size();
    const bool right_ok = after >= code.size() || !IsWordChar(code[after]);
    if (left_ok && right_ok) {
      return true;
    }
    pos += 1;
  }
  return false;
}

void CheckUnorderedIteration(const StrippedSource& src, std::string_view path,
                             std::vector<LintIssue>* issues) {
  if (!PathContains(path, "src/trace/")) {
    return;
  }
  const std::set<std::string> names = UnorderedNames(src);
  if (names.empty()) {
    return;
  }
  const std::string& code = src.code;
  // Range-for over an unordered name: for ( ... : <name> ).
  for (size_t pos : FindToken(code, "for", /*exclude_member=*/false)) {
    size_t i = pos + 3;
    while (i < code.size() &&
           std::isspace(static_cast<unsigned char>(code[i]))) {
      ++i;
    }
    if (i >= code.size() || code[i] != '(') {
      continue;
    }
    const size_t open = i;
    int depth = 0;
    size_t colon = std::string::npos;
    size_t close = code.size();
    for (; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(') {
        ++depth;
      } else if (c == ')') {
        if (--depth == 0) {
          close = i;
          break;
        }
      } else if (c == ':' && depth == 1 && colon == std::string::npos) {
        const bool scope = (i > 0 && code[i - 1] == ':') ||
                           (i + 1 < code.size() && code[i + 1] == ':');
        if (!scope) {
          colon = i;
        }
      }
    }
    if (colon == std::string::npos) {
      continue;
    }
    for (const std::string& name : names) {
      if (NameInRange(code, colon, close, name)) {
        issues->push_back(LintIssue{
            std::string(path), src.line_of[open], "ddr-unordered-iteration",
            StrPrintf("range-for over unordered container '%s' in "
                      "encode/index code: iteration order is hash-order, "
                      "so emitted bytes vary across runs; iterate a sorted "
                      "view or an ordered container instead",
                      name.c_str())});
        break;
      }
    }
  }
  // Explicit iterator walks: <name>.begin( / ->begin( and the c/r forms.
  for (const std::string& name : names) {
    for (const char* access : {".begin(", ".cbegin(", ".rbegin(",
                               "->begin(", "->cbegin("}) {
      std::string pattern = name + access;
      for (size_t pos : FindToken(code, pattern, /*exclude_member=*/false)) {
        issues->push_back(LintIssue{
            std::string(path), src.line_of[pos], "ddr-unordered-iteration",
            StrPrintf("iterator walk over unordered container '%s' in "
                      "encode/index code: hash-order iteration makes output "
                      "bytes nondeterministic",
                      name.c_str())});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: ddr-raw-io (src/ only; the fault-injection wrapper is exempt).
//
// Durability I/O must flow through (or next to) the PR 8 fault-injection
// sites so `ddr-trace torture` can enumerate crash points through it. A
// raw call is accepted when any consult token appears within the
// preceding kFaultWindow lines — the widest spread in the shipped tree
// is 17 lines (SyncParentDir's retry loop), so 25 gives retry loops room
// without letting a consult in one function vouch for I/O in the next.
// ---------------------------------------------------------------------------

constexpr int kFaultWindow = 25;

constexpr const char* kRawIo[] = {"write(", "pwrite(", "fsync(",
                                  "fdatasync(", "rename("};
constexpr const char* kFaultConsults[] = {"FaultPoint(", "FaultWritePoint(",
                                          "FaultEintr(", "FaultsArmed("};

void CheckRawIo(const StrippedSource& src, std::string_view path,
                std::vector<LintIssue>* issues) {
  if (!PathContains(path, "src/") || PathContains(path, "src/analysis/") ||
      PathContains(path, "src/util/fault_injection")) {
    return;
  }
  std::set<int> consult_lines;
  for (const char* consult : kFaultConsults) {
    for (size_t pos : FindToken(src.code, consult, /*exclude_member=*/true)) {
      consult_lines.insert(src.line_of[pos]);
    }
  }
  for (const char* call : kRawIo) {
    for (size_t pos : FindToken(src.code, call, /*exclude_member=*/true)) {
      const int line = src.line_of[pos];
      auto it = consult_lines.lower_bound(line - kFaultWindow);
      if (it != consult_lines.end() && *it <= line) {
        continue;
      }
      issues->push_back(LintIssue{
          std::string(path), line, "ddr-raw-io",
          StrPrintf("raw '%s' with no fault-injection consult in the "
                    "preceding %d lines: durability I/O that bypasses "
                    "FaultPoint/FaultWritePoint is invisible to crash "
                    "enumeration (see src/util/fault_injection.h)",
                    call, kFaultWindow)});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: ddr-raw-sync (src/ only; src/util/ and src/analysis/sched/
// exempt).
//
// The schedule explorer (src/analysis/sched/) can only interleave what it
// can see, and it sees the annotated wrappers in
// src/util/thread_annotations.h. A raw std::mutex or std::thread in
// product code is a synchronization edge the explorer (and the clang
// thread-safety analysis) is blind to. src/util/ hosts the wrappers
// themselves; src/analysis/sched/ is the cooperative scheduler that sits
// beneath them and must use the real primitives — both are exempt for the
// same reason fault_injection is exempt from ddr-raw-io.
// ---------------------------------------------------------------------------

struct RawSyncToken {
  const char* token;
  const char* instead;
};

constexpr RawSyncToken kRawSync[] = {
    {"std::mutex", "ddr::Mutex"},
    {"std::recursive_mutex", "ddr::Mutex (and remove the reentrancy)"},
    {"std::shared_mutex", "ddr::Mutex"},
    {"std::shared_timed_mutex", "ddr::Mutex"},
    {"std::condition_variable_any", "ddr::CondVar"},
    {"std::condition_variable", "ddr::CondVar"},
    {"std::thread", "ddr::OsThread"},
};

void CheckRawSync(const StrippedSource& src, std::string_view path,
                  std::vector<LintIssue>* issues) {
  if (!PathContains(path, "src/") || PathContains(path, "src/util/") ||
      PathContains(path, "src/analysis/sched/")) {
    return;
  }
  // Longest token first at each position: std::condition_variable must
  // not also fire inside std::condition_variable_any.
  std::set<size_t> claimed;
  for (const RawSyncToken& banned : kRawSync) {
    const size_t len = std::string_view(banned.token).size();
    for (size_t pos : FindToken(src.code, banned.token,
                                /*exclude_member=*/false)) {
      // Right boundary: reject a match that is a prefix of a longer
      // identifier (condition_variable inside condition_variable_any).
      if (pos + len < src.code.size() && IsWordChar(src.code[pos + len])) {
        continue;
      }
      if (!claimed.insert(pos).second) {
        continue;
      }
      issues->push_back(LintIssue{
          std::string(path), src.line_of[pos], "ddr-raw-sync",
          StrPrintf("raw '%s' outside src/util/: invisible to the schedule "
                    "explorer and the thread-safety analysis; use %s from "
                    "src/util/thread_annotations.h",
                    banned.token, banned.instead)});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: ddr-suppression, and the suppression map itself.
//
// Grammar: `NOLINT(ddr-<rule>): <justification>` suppresses <rule> on its
// own line; `NOLINTNEXTLINE(ddr-<rule>): <justification>` on the line
// below. A ddr suppression with no justification text is itself a
// finding — and that finding cannot be suppressed. Non-ddr NOLINTs
// (clang-tidy's) are none of our business and pass through untouched.
// ---------------------------------------------------------------------------

std::map<int, std::set<std::string>> CollectSuppressions(
    const StrippedSource& src, std::string_view path,
    std::vector<LintIssue>* issues) {
  std::map<int, std::set<std::string>> suppressed;
  for (int line = 1; line < static_cast<int>(src.comments.size()); ++line) {
    const std::string& text = src.comments[line];
    size_t pos = 0;
    while ((pos = text.find("NOLINT", pos)) != std::string::npos) {
      size_t cursor = pos + 6;
      int target = line;
      if (text.compare(cursor, 8, "NEXTLINE") == 0) {
        cursor += 8;
        target = line + 1;
      }
      if (cursor >= text.size() || text[cursor] != '(') {
        pos = cursor;
        continue;
      }
      const size_t close = text.find(')', cursor);
      if (close == std::string::npos) {
        pos = cursor;
        continue;
      }
      const std::string rule = text.substr(cursor + 1, close - cursor - 1);
      pos = close + 1;
      if (rule.rfind("ddr-", 0) != 0) {
        continue;  // someone else's NOLINT
      }
      size_t just = close + 1;
      while (just < text.size() &&
             std::isspace(static_cast<unsigned char>(text[just]))) {
        ++just;
      }
      bool justified = just < text.size() && text[just] == ':';
      if (justified) {
        ++just;
        while (just < text.size() &&
               std::isspace(static_cast<unsigned char>(text[just]))) {
          ++just;
        }
        justified = just < text.size();
      }
      if (!justified) {
        issues->push_back(LintIssue{
            std::string(path), line, "ddr-suppression",
            StrPrintf("NOLINT(%s) has no justification; write "
                      "'NOLINT(%s): <why this is safe>'",
                      rule.c_str(), rule.c_str())});
        continue;
      }
      suppressed[target].insert(rule);
    }
  }
  return suppressed;
}

}  // namespace

std::string FormatLintIssue(const LintIssue& issue) {
  return StrPrintf("%s:%d: [%s] %s", issue.file.c_str(), issue.line,
                   issue.rule.c_str(), issue.message.c_str());
}

std::string FormatLintIssuesJson(const std::vector<LintIssue>& issues) {
  std::string out = StrPrintf("{\"count\":%zu,\"issues\":[", issues.size());
  for (size_t i = 0; i < issues.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += StrPrintf("{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\","
                     "\"message\":\"%s\"}",
                     JsonEscape(issues[i].file).c_str(), issues[i].line,
                     JsonEscape(issues[i].rule).c_str(),
                     JsonEscape(issues[i].message).c_str());
  }
  out += "]}\n";
  return out;
}

std::vector<LintIssue> LintSource(std::string_view display_path,
                                  std::string_view contents,
                                  const LintOptions& options) {
  const StrippedSource src = Strip(contents);
  std::vector<LintIssue> issues;
  const std::map<int, std::set<std::string>> suppressed =
      CollectSuppressions(src, display_path, &issues);
  std::vector<LintIssue> found;
  CheckNondeterminism(src, display_path, options, &found);
  CheckUnorderedIteration(src, display_path, &found);
  CheckRawIo(src, display_path, &found);
  CheckRawSync(src, display_path, &found);
  for (LintIssue& issue : found) {
    auto it = suppressed.find(issue.line);
    if (it != suppressed.end() && it->second.count(issue.rule) > 0) {
      continue;
    }
    issues.push_back(std::move(issue));
  }
  std::stable_sort(issues.begin(), issues.end(),
                   [](const LintIssue& a, const LintIssue& b) {
                     return a.line != b.line ? a.line < b.line
                                             : a.rule < b.rule;
                   });
  return issues;
}

Result<std::vector<LintIssue>> LintTree(const std::vector<std::string>& roots,
                                        const LintOptions& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  auto wants = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
  };
  for (const std::string& root : roots) {
    std::error_code ec;
    const fs::file_status st = fs::status(root, ec);
    if (ec || st.type() == fs::file_type::not_found) {
      return NotFoundError("lint root does not exist: " + root);
    }
    if (fs::is_regular_file(st)) {
      files.push_back(root);
      continue;
    }
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file() && wants(it->path())) {
        files.push_back(it->path().generic_string());
      }
    }
    if (ec) {
      return UnavailableError("cannot walk lint root " + root + ": " +
                              ec.message());
    }
  }
  // Sorted order: the report (and any future baseline diffing) must not
  // depend on directory-entry order, which is filesystem-specific.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  std::vector<LintIssue> issues;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return UnavailableError("cannot read source file: " + file);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string contents = buf.str();
    std::vector<LintIssue> file_issues = LintSource(file, contents, options);
    issues.insert(issues.end(),
                  std::make_move_iterator(file_issues.begin()),
                  std::make_move_iterator(file_issues.end()));
  }
  return issues;
}

}  // namespace ddr
