// Fixture-driven tests for qoco-analyze (tools/analyzer/): every rule in
// the catalog fires on its bad/ fixture, every suppression form silences
// its finding, and the known-clean tree (including the .h/.cc sibling
// merge) stays quiet. The fixtures live in tests/testdata/analyzer/ and
// are lexed, never compiled.

#include "tools/analyzer/analyzer.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace qoco::analyze {
namespace {

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::vector<Finding> AnalyzeFixtureTree(const std::string& subdir,
                                        std::vector<std::string>* scanned) {
  std::string error;
  const AnalyzerConfig config;
  std::vector<Finding> findings =
      AnalyzeTree(QOCO_SOURCE_DIR, {"tests/testdata/analyzer/" + subdir},
                  config, scanned, &error);
  EXPECT_TRUE(error.empty()) << error;
  return findings;
}

// At least one bad/ fixture per rule, each producing exactly one finding
// of the rule it is named after. Adding a rule without a fixture fails the
// catalog cross-check below.
const std::map<std::string, std::string>& BadFixtureExpectations() {
  static const std::map<std::string, std::string> kExpect = {
      {"naked_new.cc", "naked-new"},
      {"c_randomness.cc", "c-randomness"},
      {"relation_iterate_mutate.cc", "relation-iterate-mutate"},
      {"raw_thread.cc", "raw-thread"},
      {"temp_string_key.cc", "temp-string-key"},
      {"adhoc_search.cc", "adhoc-search"},
      {"unordered_iteration.cc", "unordered-iteration"},
      {"id_order.cc", "id-order"},
      {"worker_intern.cc", "worker-intern"},
      {"guarded_by.cc", "guarded-by"},
      {"unjustified_suppression.cc", "unjustified-suppression"},
      // Lives under bad/src/service/: the rule only arms inside that zone.
      {"blocking_oracle.cc", "blocking-oracle"},
      // Lives under bad/src/query/, one of the zones the rule arms in.
      {"clock_read.cc", "clock-read"},
      // Lives under bad/examples/: .cpp sources are scanned too.
      {"c_randomness.cpp", "c-randomness"},
  };
  return kExpect;
}

TEST(AnalyzerFixtures, EveryRuleFiresOnItsBadFixture) {
  std::vector<std::string> scanned;
  const std::vector<Finding> findings = AnalyzeFixtureTree("bad", &scanned);
  ASSERT_EQ(scanned.size(), BadFixtureExpectations().size())
      << "bad/ fixture count drifted from the expectation table";

  std::map<std::string, std::vector<std::string>> rules_by_file;
  for (const Finding& f : findings) {
    EXPECT_GT(f.line, 0) << f.path;
    EXPECT_FALSE(f.message.empty()) << f.path;
    rules_by_file[Basename(f.path)].push_back(f.rule);
  }
  for (const auto& [file, rule] : BadFixtureExpectations()) {
    const auto it = rules_by_file.find(file);
    ASSERT_NE(it, rules_by_file.end()) << file << " produced no findings";
    EXPECT_EQ(it->second, std::vector<std::string>{rule}) << file;
  }
  EXPECT_EQ(rules_by_file.size(), BadFixtureExpectations().size())
      << "a fixture outside the expectation table produced findings";
}

TEST(AnalyzerFixtures, EveryCatalogRuleHasABadFixture) {
  std::set<std::string_view> covered;
  for (const auto& [file, rule] : BadFixtureExpectations()) {
    covered.insert(rule);
  }
  for (const RuleInfo& r : Rules()) {
    EXPECT_TRUE(covered.count(r.name) > 0)
        << "rule '" << r.name << "' has no bad/ fixture";
  }
  EXPECT_EQ(covered.size(), Rules().size());
}

TEST(AnalyzerFixtures, SuppressionFormsSilenceFindings) {
  std::vector<std::string> scanned;
  const std::vector<Finding> findings =
      AnalyzeFixtureTree("suppressed", &scanned);
  // same-line, comment-above, and comma-separated list forms.
  EXPECT_EQ(scanned.size(), 3u);
  std::ostringstream got;
  PrintFindings(findings, got);
  EXPECT_TRUE(findings.empty()) << got.str();
}

TEST(AnalyzerFixtures, CleanTreeStaysClean) {
  std::vector<std::string> scanned;
  const std::vector<Finding> findings = AnalyzeFixtureTree("clean", &scanned);
  // The .h/.cc sibling pair must both be scanned — the guarded-by negative
  // depends on merging the header's QOCO_REQUIRES declaration.
  EXPECT_EQ(scanned.size(), 2u);
  std::ostringstream got;
  PrintFindings(findings, got);
  EXPECT_TRUE(findings.empty()) << got.str();
}

TEST(AnalyzerCatalog, RulesAreDocumentedAndUnique) {
  std::set<std::string_view> names;
  for (const RuleInfo& r : Rules()) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_FALSE(r.summary.empty()) << r.name;
    EXPECT_FALSE(r.fix.empty()) << r.name;
    EXPECT_TRUE(names.insert(r.name).second) << "duplicate rule: " << r.name;
  }
}

TEST(AnalyzerSelfTest, AllCalibrationCasesPass) {
  std::ostringstream err;
  EXPECT_TRUE(SelfTest(err)) << err.str();
}

}  // namespace
}  // namespace qoco::analyze
