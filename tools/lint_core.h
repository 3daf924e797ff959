// topobench_lint engine: repo-specific determinism rules as a library.
//
// The paper reproduction's headline contract is bitwise reproducibility:
// every CSV byte a driver emits is a pure function of (code, seed, grid).
// PR 5 (deterministic parallel solves) and PR 6 (byte-identical shard
// merge) re-established that contract by hand; this checker machine-checks
// the hazards that historically break it before code merges:
//
//   unordered-container   std::unordered_{map,set} anywhere in scanned
//                         code — iteration order is implementation- and
//                         hash-seed-defined and must not reach results.
//   banned-random         std::rand / std::random_device / std engines
//                         and distributions — not reproducible across
//                         standard libraries; use tb::Rng (util/rng.h).
//   wall-clock            clock reads (time(), ::now(), <ctime>) outside
//                         util/timer.h — timing must flow through
//                         tb::Timer and never into result values.
//   par-policy            std::execution::par / par_unseq / unseq —
//                         parallel STL reduces in nondeterministic order;
//                         use ThreadPool with ordered reductions.
//   seed-arith            ad-hoc arithmetic on seed-named values — seed
//                         streams are derived with tb::mix_seed only.
//   unordered-reduction   std::reduce / std::transform_reduce, and
//                         std::atomic<float/double> in ThreadPool-using
//                         files — floating-point accumulation must use
//                         the PR-5 ordered-reduction idioms.
//   raw-getenv            getenv outside src/util/env.cpp — every
//                         TOPOBENCH_* knob is read through util/env's
//                         strict loaders, so a malformed value cannot
//                         silently change which work a run does.
//
// Escape hatch: a finding is suppressed by a marker comment on the same
// line or the immediately preceding line, written as the marker prefix
// (kMarkerPrefix) followed by "allow(rule-id)" and a non-empty
// justification. Every exception is therefore visible and greppable.
// A marker that fails to parse, names an unknown rule, or lacks a
// justification is itself reported (rule "bad-marker"); a well-formed
// marker that suppresses nothing is reported as "unused-allow" so stale
// exceptions cannot accumulate.
//
// Matching runs on comment- and string-stripped source text, so prose and
// string literals (e.g. /*seed=*/ argument comments) never trip rules;
// markers, conversely, are only recognized inside comments.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tb::lint {

inline constexpr std::string_view kVersion = "1.0.0";

/// The comment token that introduces an allow marker.
inline constexpr std::string_view kMarkerPrefix = "topobench-lint:";

enum class Severity { kWarning, kError };

/// Stable string form ("warning" / "error") used in reports.
std::string_view severity_name(Severity severity);

struct Finding {
  // `file` is the path as given to the linter; `line` is 1-based; `rule`
  // is an id from rule_catalogue() or a reserved marker diagnostic.
  std::string file;
  std::size_t line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// The enforced rules, in report order. Ids are the vocabulary of
/// allow(...) markers; "bad-marker" / "unused-allow" are reserved
/// diagnostics about markers themselves and cannot be allowed.
const std::vector<RuleInfo>& rule_catalogue();

/// True when `id` names a rule that an allow(...) marker may reference.
bool is_allowable_rule(std::string_view id);

/// Lint one source file's contents. `path` is used only for labeling.
/// Findings are sorted by (line, rule).
std::vector<Finding> lint_source(std::string_view path, std::string_view text);

/// Lint files and/or directories (directories recurse into *.h, *.hpp,
/// *.cc, *.cpp, *.cxx; explicit files are scanned regardless of
/// extension). Findings are sorted by (file, line, rule). Throws
/// std::runtime_error for a path that does not exist or cannot be read.
std::vector<Finding> lint_paths(const std::vector<std::string>& paths);

/// One "file:line: severity: [rule] message" line per finding.
std::string render_text(const std::vector<Finding>& findings);

/// JSON array of {file, line, rule, severity, message} objects.
std::string render_json(const std::vector<Finding>& findings);

}  // namespace tb::lint
