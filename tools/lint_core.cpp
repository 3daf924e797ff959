#include "lint_core.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace tb::lint {
namespace {

// ---------------------------------------------------------------------------
// Source classification: split a translation unit into code-only and
// comment-only views of identical shape (byte i of each view is either the
// original byte or a space; newlines survive in both). Rules match against
// the code view so string literals and prose cannot trip them; markers are
// parsed from the comment view so nothing outside a comment is a marker.

struct SplitSource {
  std::string code;
  std::string comments;
};

SplitSource split_source(std::string_view text) {
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  SplitSource out;
  out.code.assign(text.size(), ' ');
  out.comments.assign(text.size(), ' ');
  State state = State::kCode;
  std::string raw_end;  // ")delim\"" terminator of an open raw string
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {  // line structure survives in both views
      out.code[i] = '\n';
      out.comments[i] = '\n';
      if (state == State::kLine) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out.comments[i] = c;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out.comments[i] = c;
        } else if (c == '"') {
          if (i > 0 && text[i - 1] == 'R') {
            // R"delim( ... )delim" — find the open paren, remember the
            // exact terminator.
            std::size_t paren = text.find('(', i + 1);
            if (paren == std::string_view::npos) paren = text.size() - 1;
            raw_end = ")";
            raw_end.append(text.substr(i + 1, paren - i - 1));
            raw_end.push_back('"');
            state = State::kRaw;
          } else {
            state = State::kString;
          }
        } else if (c == '\'') {
          // A quote right after a digit is a numeric separator (1'000'000),
          // not a character literal.
          const bool after_digit =
              i > 0 && std::isdigit(static_cast<unsigned char>(text[i - 1]));
          if (!after_digit) {
            state = State::kChar;
          } else {
            out.code[i] = c;
          }
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLine:
      case State::kBlock:
        out.comments[i] = c;
        if (state == State::kBlock && c == '*' && next == '/') {
          out.comments[i + 1] = '/';
          ++i;
          state = State::kCode;
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          ++i;  // the escaped byte stays blank in both views
        } else if (c == quote) {
          state = State::kCode;
        }
        break;
      }
      case State::kRaw:
        if (text.compare(i, raw_end.size(), raw_end) == 0) {
          i += raw_end.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Rule table. Every pattern matches one stripped-code line at a time, so
// multi-line constructs are caught at the line that names the hazard.

struct Rule {
  std::string_view id;
  std::string_view summary;
  std::string_view message;
  std::vector<std::regex> patterns;
  /// When set, `patterns` only apply in files whose code contains this
  /// token (e.g. reductions are only hazardous next to a thread pool).
  std::string_view file_precondition;
};

std::regex rx(const char* pattern) {
  return std::regex(pattern, std::regex::ECMAScript | std::regex::optimize);
}

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = [] {
    std::vector<Rule> r;
    r.push_back(Rule{
        "unordered-container",
        "std::unordered_{map,set}: iteration order may leak into results",
        "unordered container: iteration order is implementation-defined; "
        "use an ordered container, or justify lookup-only use with an "
        "allow marker",
        {rx(R"(std::unordered_(map|set|multimap|multiset)\b)"),
         rx(R"(#\s*include\s*<unordered_(map|set)>)")},
        {}});
    r.push_back(Rule{
        "banned-random",
        "std random sources/engines: not reproducible across stdlibs",
        "banned randomness source: draw from tb::Rng with an explicit "
        "seed (util/rng.h) so results reproduce across standard "
        "libraries",
        {rx(R"(\bstd\s*::\s*s?rand\b)"), rx(R"(\bs?rand\s*\()"),
         rx(R"(\brandom_device\b)"),
         rx(R"(\b(mt19937(_64)?|minstd_rand0?|default_random_engine)\b)"),
         rx(R"(\b(knuth_b|ranlux(24|48)(_base)?)\b)"),
         rx(R"(\b[A-Za-z_]*_distribution\s*<)"),
         rx(R"(#\s*include\s*<random>)")},
        {}});
    r.push_back(Rule{
        "wall-clock",
        "clock reads outside util/timer.h: time must not reach results",
        "wall-clock read: route timing through tb::Timer (util/timer.h) "
        "and keep clock values out of result-affecting state",
        {rx(R"(\b(system_clock|steady_clock|high_resolution_clock)\b)"),
         rx(R"(::\s*now\s*\()"), rx(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))"),
         rx(R"(\bstd\s*::\s*time\b)"),
         rx(R"(\b(gettimeofday|clock_gettime|timespec_get)\b)"),
         rx(R"(\bclock\s*\(\s*\))"), rx(R"(#\s*include\s*<ctime>)"),
         rx(R"(#\s*include\s*<sys/time\.h>)")},
        {}});
    r.push_back(Rule{
        "par-policy",
        "std::execution parallel policies: unordered STL reductions",
        "parallel STL execution policy: reduction order is "
        "nondeterministic; use ThreadPool::parallel_for with an ordered "
        "post-barrier reduction instead",
        {rx(R"(\bexecution\s*::\s*(par_unseq|par|unseq)\b)"),
         rx(R"(#\s*include\s*<execution>)")},
        {}});
    r.push_back(Rule{
        "unordered-reduction",
        "std::reduce / atomic<float/double> near ThreadPool: unordered "
        "float accumulation",
        "unordered floating-point reduction: accumulate per-slot and "
        "reduce in fixed index order after the barrier (see the PR-5 "
        "idioms in mcf/garg_konemann.cpp and lp/simplex.cpp)",
        {rx(R"(\bstd\s*::\s*(transform_)?reduce\s*\()")},
        {}});
    // The atomic<float/double> half only bites where a thread pool is in
    // scope; a serial atomic double is odd but not a determinism hazard.
    r.push_back(Rule{
        "unordered-reduction",
        {},  // second pattern set of the same rule; catalogue lists one
        "unordered floating-point reduction: atomic float accumulation "
        "commits in scheduling order; accumulate per-slot and reduce in "
        "fixed index order after the barrier",
        {rx(R"(\bstd\s*::\s*atomic\s*<\s*(float|double|long\s+double)\s*>)")},
        "ThreadPool"});
    r.push_back(Rule{
        "raw-getenv",
        "getenv outside util/env.cpp: knobs bypass the strict loaders",
        "raw environment read: load the variable through util/env.h "
        "(env::raw, int_knob, double_knob, flag_knob) so a malformed "
        "value fails loudly instead of silently changing the work done",
        {rx(R"(\b(secure_)?getenv\b)")},
        {}});
    return r;
  }();
  return kRules;
}

// seed-arith is matched procedurally (token adjacency), not by a single
// regex; its catalogue entry lives in rule_catalogue() alongside the rest.
constexpr std::string_view kSeedArithId = "seed-arith";
constexpr std::string_view kSeedArithMessage =
    "raw seed arithmetic: derive seed streams with tb::mix_seed "
    "(util/rng.h), never with ad-hoc +/*/^/++ on seed values";

bool is_seed_identifier(std::string_view token) {
  const auto ends_with = [&](std::string_view suffix) {
    return token.size() >= suffix.size() &&
           token.substr(token.size() - suffix.size()) == suffix;
  };
  return token == "seed" || token == "seed_" || ends_with("_seed") ||
         ends_with("_seed_");
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool is_arith_char(char c) {
  return c == '+' || c == '-' || c == '*' || c == '/' || c == '%' || c == '^';
}

/// True when the line derives a seed value through raw arithmetic: a
/// seed-named identifier directly adjacent to an arithmetic operator
/// (seed++, seed + 99, base ^ seed), or an assignment to a seed-named
/// lvalue whose right-hand side computes with arithmetic. Lines that
/// already call mix_seed/splitmix64 are the sanctioned derivations.
bool line_has_seed_arith(const std::string& line) {
  if (line.find("mix_seed") != std::string::npos ||
      line.find("splitmix64") != std::string::npos) {
    return false;
  }
  std::size_t i = 0;
  while (i < line.size()) {
    if (!is_ident_char(line[i])) {
      ++i;
      continue;
    }
    std::size_t b = i;
    while (i < line.size() && is_ident_char(line[i])) ++i;
    if (!is_seed_identifier(std::string_view(line).substr(b, i - b))) continue;
    // Adjacent operator on either side (skipping spaces)?
    std::size_t l = b;
    while (l > 0 && line[l - 1] == ' ') --l;
    if (l > 0 && is_arith_char(line[l - 1]) &&
        !(line[l - 1] == '/' && l > 1 && line[l - 2] == '/')) {
      return true;
    }
    std::size_t rpos = i;
    while (rpos < line.size() && line[rpos] == ' ') ++rpos;
    if (rpos < line.size() && is_arith_char(line[rpos])) {
      // `seed->member` is access, not subtraction.
      if (!(line[rpos] == '-' && rpos + 1 < line.size() &&
            line[rpos + 1] == '>')) {
        return true;
      }
    }
    // Assignment with an arithmetic right-hand side: seed = 6000 + q.
    if (rpos < line.size() && line[rpos] == '=' &&
        (rpos + 1 >= line.size() || line[rpos + 1] != '=')) {
      static const std::regex kRhsArith(
          R"([\w)\]]\s*(\+|-|\*|/|%|\^|<<|>>)\s*[\w(])");
      if (std::regex_search(line.begin() + static_cast<std::ptrdiff_t>(rpos),
                            line.end(), kRhsArith)) {
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Allow markers.

struct Marker {
  std::size_t line = 0;  // 1-based
  std::vector<std::string> rules;
  bool used = false;
};

/// Parses the markers of one file from its comment view. Malformed markers
/// become findings immediately.
std::vector<Marker> parse_markers(std::string_view path,
                                  const std::vector<std::string>& comment_lines,
                                  std::vector<Finding>& findings) {
  std::vector<Marker> markers;
  for (std::size_t n = 0; n < comment_lines.size(); ++n) {
    const std::string& raw = comment_lines[n];
    const std::size_t at = raw.find(kMarkerPrefix);
    if (at == std::string::npos) continue;
    const std::size_t line_no = n + 1;
    const auto bad = [&](std::string_view why) {
      findings.push_back(Finding{std::string(path), line_no, "bad-marker",
                                 Severity::kError,
                                 "malformed lint marker: " + std::string(why)});
    };
    std::string_view rest =
        trim(std::string_view(raw).substr(at + kMarkerPrefix.size()));
    constexpr std::string_view kAllow = "allow(";
    if (rest.substr(0, kAllow.size()) != kAllow) {
      bad("expected allow(rule-id) after the marker prefix");
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      bad("unterminated allow( list");
      continue;
    }
    Marker marker;
    marker.line = line_no;
    std::string_view ids = rest.substr(kAllow.size(), close - kAllow.size());
    bool ok = !trim(ids).empty();
    while (ok && !ids.empty()) {
      const std::size_t comma = ids.find(',');
      const std::string_view id = trim(ids.substr(0, comma));
      if (!is_allowable_rule(id)) {
        bad("unknown rule id '" + std::string(id) + "'");
        ok = false;
        break;
      }
      marker.rules.emplace_back(id);
      if (comma == std::string_view::npos) break;
      ids.remove_prefix(comma + 1);
    }
    if (!ok) continue;
    if (trim(rest.substr(close + 1)).empty()) {
      bad("missing justification after allow(...)");
      continue;
    }
    markers.push_back(std::move(marker));
  }
  return markers;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string_view severity_name(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kCatalogue = [] {
    std::vector<RuleInfo> list;
    std::set<std::string_view> seen;
    for (const Rule& rule : rules()) {
      if (seen.insert(rule.id).second) {
        list.push_back(RuleInfo{rule.id, rule.summary});
      }
    }
    list.push_back(RuleInfo{
        kSeedArithId,
        "ad-hoc seed arithmetic: derive streams with tb::mix_seed"});
    return list;
  }();
  return kCatalogue;
}

bool is_allowable_rule(std::string_view id) {
  for (const RuleInfo& info : rule_catalogue()) {
    if (info.id == id) return true;
  }
  return false;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view text) {
  const SplitSource views = split_source(text);
  const std::vector<std::string> code_lines = split_lines(views.code);
  const std::vector<std::string> comment_lines = split_lines(views.comments);

  std::vector<Finding> findings;
  std::vector<Marker> markers = parse_markers(path, comment_lines, findings);

  // Collect raw rule hits, deduplicated per (line, rule).
  std::map<std::pair<std::size_t, std::string_view>, std::string_view> hits;
  for (const Rule& rule : rules()) {
    if (!rule.file_precondition.empty() &&
        views.code.find(rule.file_precondition) == std::string::npos) {
      continue;
    }
    for (std::size_t n = 0; n < code_lines.size(); ++n) {
      for (const std::regex& pattern : rule.patterns) {
        if (std::regex_search(code_lines[n], pattern)) {
          hits.emplace(std::make_pair(n + 1, rule.id), rule.message);
          break;
        }
      }
    }
  }
  for (std::size_t n = 0; n < code_lines.size(); ++n) {
    if (line_has_seed_arith(code_lines[n])) {
      hits.emplace(std::make_pair(n + 1, kSeedArithId), kSeedArithMessage);
    }
  }

  // Apply markers: a marker covers its own line and the next one.
  for (const auto& [key, message] : hits) {
    const auto [line_no, rule_id] = key;
    bool allowed = false;
    for (Marker& marker : markers) {
      if (marker.line != line_no && marker.line + 1 != line_no) continue;
      if (std::find(marker.rules.begin(), marker.rules.end(), rule_id) ==
          marker.rules.end()) {
        continue;
      }
      marker.used = true;
      allowed = true;
    }
    if (!allowed) {
      findings.push_back(Finding{std::string(path), line_no,
                                 std::string(rule_id), Severity::kError,
                                 std::string(message)});
    }
  }
  for (const Marker& marker : markers) {
    if (!marker.used) {
      findings.push_back(
          Finding{std::string(path), marker.line, "unused-allow",
                  Severity::kWarning,
                  "allow marker suppresses nothing on this or the next "
                  "line; remove it so exceptions stay meaningful"});
    }
  }
  sort_findings(findings);
  return findings;
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExtensions = {".h", ".hpp", ".cc",
                                                    ".cpp", ".cxx"};
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    const fs::file_status status = fs::status(path, ec);
    if (ec || status.type() == fs::file_type::not_found) {
      throw std::runtime_error("no such file or directory: " + path);
    }
    if (fs::is_directory(status)) {
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() &&
            kExtensions.count(entry.path().extension().string()) > 0) {
          files.push_back(entry.path().generic_string());
        }
      }
    } else {
      files.push_back(fs::path(path).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::vector<Finding> file_findings = lint_source(file, buffer.str());
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  sort_findings(findings);
  return findings;
}

std::string render_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ':' << f.line << ": " << severity_name(f.severity)
        << ": [" << f.rule << "] " << f.message << '\n';
  }
  return out.str();
}

std::string render_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "  {\"file\": \"" << json_escape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \""
        << json_escape(f.rule) << "\", \"severity\": \""
        << severity_name(f.severity) << "\", \"message\": \""
        << json_escape(f.message) << "\"}";
    if (i + 1 < findings.size()) out << ',';
    out << '\n';
  }
  out << "]\n";
  return out.str();
}

}  // namespace tb::lint
