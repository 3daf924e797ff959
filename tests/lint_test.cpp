// Tests for tools/topobench_lint's engine (tools/lint_core.h): every rule
// is exercised by a positive fixture (each expected hit pinned to its
// line) and a negative fixture full of lookalikes that must stay clean,
// plus the allow-marker escape hatch — suppression, malformed markers,
// unused markers — and the renderers. Fixture snippets live in
// tests/lint_fixtures/ and are never compiled; the path arrives through
// the TOPOBENCH_LINT_FIXTURES compile definition. A rule regression here
// fails CTest directly, not just the CI lint job.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint_core.h"

namespace tb::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(TOPOBENCH_LINT_FIXTURES "/") + name;
}

// Renders one fixture's findings as "line:rule line:rule ..." (sorted by
// line, then rule — the engine's own order), so each expectation is a
// single readable string and a mismatch prints both sides whole.
std::string hits(const std::string& name) {
  std::string out;
  for (const Finding& f : lint_paths({fixture(name)})) {
    if (!out.empty()) out += ' ';
    out += std::to_string(f.line) + ':' + f.rule;
  }
  return out;
}

TEST(LintCatalogue, ListsEveryRuleExactlyOnce) {
  std::set<std::string> ids;
  for (const RuleInfo& info : rule_catalogue()) {
    EXPECT_TRUE(ids.insert(std::string(info.id)).second) << info.id;
    EXPECT_FALSE(info.summary.empty()) << info.id;
  }
  EXPECT_EQ(ids.size(), 7u);
  EXPECT_EQ(ids.count("unordered-container"), 1u);
  EXPECT_EQ(ids.count("banned-random"), 1u);
  EXPECT_EQ(ids.count("wall-clock"), 1u);
  EXPECT_EQ(ids.count("par-policy"), 1u);
  EXPECT_EQ(ids.count("unordered-reduction"), 1u);
  EXPECT_EQ(ids.count("seed-arith"), 1u);
  EXPECT_EQ(ids.count("raw-getenv"), 1u);
}

TEST(LintCatalogue, MarkerDiagnosticsAreNotAllowable) {
  for (const RuleInfo& info : rule_catalogue()) {
    EXPECT_TRUE(is_allowable_rule(info.id)) << info.id;
  }
  EXPECT_FALSE(is_allowable_rule("bad-marker"));
  EXPECT_FALSE(is_allowable_rule("unused-allow"));
  EXPECT_FALSE(is_allowable_rule("no-such-rule"));
}

TEST(LintRules, UnorderedContainerPositive) {
  EXPECT_EQ(hits("unordered_pos.cpp"),
            "3:unordered-container 4:unordered-container "
            "6:unordered-container 14:unordered-container");
}

TEST(LintRules, UnorderedContainerNegative) {
  EXPECT_EQ(hits("unordered_neg.cpp"), "");
}

TEST(LintRules, BannedRandomPositive) {
  EXPECT_EQ(hits("banned_random_pos.cpp"),
            "3:banned-random 6:banned-random 7:banned-random "
            "8:banned-random 9:banned-random");
}

TEST(LintRules, BannedRandomNegative) {
  EXPECT_EQ(hits("banned_random_neg.cpp"), "");
}

TEST(LintRules, WallClockPositive) {
  EXPECT_EQ(hits("wall_clock_pos.cpp"),
            "3:wall-clock 6:wall-clock 10:wall-clock 14:wall-clock");
}

TEST(LintRules, WallClockNegative) {
  EXPECT_EQ(hits("wall_clock_neg.cpp"), "");
}

TEST(LintRules, ParPolicyPositive) {
  EXPECT_EQ(hits("par_policy_pos.cpp"),
            "3:par-policy 7:par-policy 8:par-policy");
}

TEST(LintRules, ParPolicyNegative) {
  EXPECT_EQ(hits("par_policy_neg.cpp"), "");
}

TEST(LintRules, RawGetenvPositive) {
  EXPECT_EQ(hits("raw_getenv_pos.cpp"),
            "5:raw-getenv 10:raw-getenv 13:raw-getenv");
}

TEST(LintRules, RawGetenvNegative) {
  EXPECT_EQ(hits("raw_getenv_neg.cpp"), "");
}

TEST(LintRules, SeedArithPositive) {
  EXPECT_EQ(hits("seed_arith_pos.cpp"),
            "5:seed-arith 6:seed-arith 8:seed-arith 9:seed-arith "
            "17:seed-arith");
}

TEST(LintRules, SeedArithNegative) {
  EXPECT_EQ(hits("seed_arith_neg.cpp"), "");
}

TEST(LintRules, UnorderedReductionPositive) {
  EXPECT_EQ(hits("unordered_reduction_pos.cpp"),
            "13:unordered-reduction 15:unordered-reduction");
}

TEST(LintRules, UnorderedReductionNegative) {
  EXPECT_EQ(hits("unordered_reduction_neg.cpp"), "");
}

TEST(LintRules, AtomicFloatNeedsThreadPoolInScope) {
  // The same atomic<double> is only a finding when the file names a
  // thread pool; a serial atomic double is odd but not a hazard.
  const std::string snippet = "#include <atomic>\nstd::atomic<double> a;\n";
  EXPECT_TRUE(lint_source("serial.cpp", snippet).empty());
  const std::vector<Finding> pooled =
      lint_source("pooled.cpp", snippet + "tb::ThreadPool* pool;\n");
  ASSERT_EQ(pooled.size(), 1u);
  EXPECT_EQ(pooled[0].rule, "unordered-reduction");
  EXPECT_EQ(pooled[0].line, 2u);
}

TEST(LintMarkers, WellFormedMarkersSuppress) {
  EXPECT_EQ(hits("allow_marker_ok.cpp"), "");
}

TEST(LintMarkers, MalformedMarkersAreFindingsAndSuppressNothing) {
  EXPECT_EQ(hits("allow_marker_bad.cpp"),
            "5:bad-marker 6:seed-arith 8:bad-marker 9:seed-arith "
            "11:bad-marker 12:seed-arith");
}

TEST(LintMarkers, UnusedMarkerIsReported) {
  const std::vector<Finding> findings =
      lint_paths({fixture("allow_marker_unused.cpp")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unused-allow");
  EXPECT_EQ(findings[0].line, 5u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
}

TEST(LintStripping, CommentsAndStringsNeverTripRules) {
  EXPECT_TRUE(lint_source("f.cpp", "// std::rand() in prose\n").empty());
  EXPECT_TRUE(lint_source("f.cpp", "/* time(nullptr) */ int x;\n").empty());
  EXPECT_TRUE(
      lint_source("f.cpp", "const char* s = \"std::rand()\";\n").empty());
  EXPECT_TRUE(
      lint_source("f.cpp", "auto r = R\"(std::random_device)\";\n").empty());
  // The /*seed=*/ argument-comment idiom must not read as seed arithmetic.
  EXPECT_TRUE(lint_source("f.cpp", "make(n, /*seed=*/1 + 2);\n").empty());
}

TEST(LintStripping, MarkerTextInsideStringIsNotAMarker) {
  // A string literal spelling the marker prefix is documentation, not a
  // marker: it neither suppresses nor reports.
  const std::string src =
      "const char* kDoc = \"topobench-lint: allow(junk)\";\n";
  EXPECT_TRUE(lint_source("f.cpp", src).empty());
}

TEST(LintReport, TextAndJsonCarryFileLineRuleSeverity) {
  const std::vector<Finding> findings =
      lint_source("dir/file.cpp", "std::random_device rd;\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string text = render_text(findings);
  EXPECT_NE(text.find("dir/file.cpp:1: error: [banned-random]"),
            std::string::npos)
      << text;
  const std::string json = render_json(findings);
  EXPECT_NE(json.find("\"file\": \"dir/file.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"banned-random\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
}

TEST(LintReport, FindingsAreSortedByFileLineRule) {
  const std::string src =
      "std::random_device rd;\nstd::unordered_map<int, int> m;\n";
  const std::vector<Finding> findings = lint_source("f.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_LT(findings[0].line, findings[1].line);
}

TEST(LintPaths, MissingPathThrows) {
  EXPECT_THROW(lint_paths({fixture("no_such_fixture.cpp")}),
               std::runtime_error);
}

TEST(LintPaths, DirectoryScanCoversEveryFixture) {
  // Scanning the fixture directory must surface findings from several
  // files, sorted by file path first.
  const std::vector<Finding> findings =
      lint_paths({std::string(TOPOBENCH_LINT_FIXTURES)});
  std::set<std::string> files;
  for (const Finding& f : findings) {
    files.insert(f.file);
  }
  EXPECT_GE(files.size(), 6u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    EXPECT_LE(findings[i - 1].file, findings[i].file);
  }
}

}  // namespace
}  // namespace tb::lint
