// Unit tests for the cost-based planner stack: ColumnStats derivation,
// laziness and version-stamped invalidation, the stats deep audit (with
// corruption injection through the friend backdoor), galloping sorted-id
// intersection, deterministic root selection and tie-breaking, semi-join
// reduction (root prefilter, allowed sets, infeasible empty intersections),
// Plan::DebugString / Evaluator::ExplainPlan rendering, the QOCO_EXPLAIN
// environment hook of the cleaner, and planned against unplanned execution.

#include "src/query/planner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cleaning/cleaner.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/column_stats.h"
#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/relational/database.h"
#include "src/relational/id_posting_map.h"
#include "src/workload/figure_one.h"

namespace qoco::query {

// Friend of ColumnStats (declared in column_stats.h): reaches the cached
// snapshots to seed invariant violations.
struct ColumnStatsCorruptor {
  static std::vector<RelationSummary>& Snapshots(const ColumnStats& s) {
    return s.relations_;
  }
};

namespace {

using relational::Database;
using relational::Tuple;
using relational::Value;
using relational::ValueId;

// ---------------------------------------------------------------------------
// IntersectSortedIds.
// ---------------------------------------------------------------------------

TEST(IntersectSortedIdsTest, BasicOverlap) {
  std::vector<ValueId> a = {1, 3, 5, 7, 9};
  std::vector<ValueId> b = {2, 3, 4, 7, 10};
  EXPECT_EQ(relational::IntersectSortedIds(a, b),
            (std::vector<ValueId>{3, 7}));
  // Symmetric: the galloping side swap must not change the result.
  EXPECT_EQ(relational::IntersectSortedIds(b, a),
            (std::vector<ValueId>{3, 7}));
}

TEST(IntersectSortedIdsTest, EdgeCases) {
  std::vector<ValueId> empty;
  std::vector<ValueId> a = {1, 2, 3};
  EXPECT_TRUE(relational::IntersectSortedIds(empty, a).empty());
  EXPECT_TRUE(relational::IntersectSortedIds(a, empty).empty());
  EXPECT_EQ(relational::IntersectSortedIds(a, a), a);
  std::vector<ValueId> disjoint = {10, 20, 30};
  EXPECT_TRUE(relational::IntersectSortedIds(a, disjoint).empty());
}

TEST(IntersectSortedIdsTest, SkewedSizesGallop) {
  // One tiny list against a long run: the galloping path must land on the
  // exact matches.
  std::vector<ValueId> big;
  // qoco-lint: allow(id-order): IntersectSortedIds' contract *is* raw-id sorted order; the test builds its inputs in that order
  for (ValueId i = 0; i < 10'000; i += 2) big.push_back(i);
  std::vector<ValueId> small = {1, 4'096, 9'999, 9'998};
  // qoco-lint: allow(id-order): sorting raw ids is the precondition under test
  std::sort(small.begin(), small.end());
  EXPECT_EQ(relational::IntersectSortedIds(small, big),
            (std::vector<ValueId>{4'096, 9'998}));
}

// ---------------------------------------------------------------------------
// ColumnStats.
// ---------------------------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    facts_ = *catalog_.AddRelation("Facts", {"key", "tag"});
    dim_ = *catalog_.AddRelation("Dim", {"key"});
    db_ = std::make_unique<Database>(&catalog_);
  }

  CQuery Parse(const std::string& text) {
    auto q = ParseQuery(text, catalog_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  Assignment Empty(const CQuery& q) {
    return Assignment(q.num_vars(), &db_->dict());
  }

  relational::Catalog catalog_;
  relational::RelationId facts_ = relational::kInvalidRelation;
  relational::RelationId dim_ = relational::kInvalidRelation;
  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, StatsSummarizeColumns) {
  // Facts: 6 rows, 3 distinct keys (posting sizes 3, 2, 1), one tag.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        db_->Insert({facts_, {Value("a"), Value(std::to_string(i))}}).ok());
  }
  ASSERT_TRUE(db_->Insert({facts_, {Value("b"), Value("3")}}).ok());
  ASSERT_TRUE(db_->Insert({facts_, {Value("b"), Value("4")}}).ok());
  ASSERT_TRUE(db_->Insert({facts_, {Value("c"), Value("5")}}).ok());
  ColumnStats stats(db_.get());
  const RelationSummary& summary = stats.ForRelation(facts_);
  EXPECT_EQ(summary.rows, 6u);
  ASSERT_EQ(summary.columns.size(), 2u);
  const ColumnSummary& key = summary.columns[0];
  EXPECT_DOUBLE_EQ(key.avg_posting, 2.0);
  EXPECT_EQ(key.domain.size(), 3u);
  EXPECT_TRUE(std::is_sorted(key.domain.begin(), key.domain.end()));
}

TEST_F(PlannerTest, StatsAreLazyAndVersionInvalidated) {
  ASSERT_TRUE(db_->Insert({dim_, {Value("x")}}).ok());
  ColumnStats stats(db_.get());
  EXPECT_EQ(stats.refreshes(), 0u);  // Construction computes nothing.
  stats.ForRelation(dim_);
  stats.ForRelation(dim_);
  EXPECT_EQ(stats.refreshes(), 1u);  // Cached on the second read.
  // A no-op edit (duplicate insert) must not invalidate.
  ASSERT_FALSE(*db_->Insert({dim_, {Value("x")}}));
  stats.ForRelation(dim_);
  EXPECT_EQ(stats.refreshes(), 1u);
  // A real edit bumps the version; the next read refreshes exactly once.
  ASSERT_TRUE(db_->Insert({dim_, {Value("y")}}).ok());
  stats.ForRelation(dim_);
  stats.ForRelation(dim_);
  EXPECT_EQ(stats.refreshes(), 2u);
  EXPECT_EQ(stats.ForRelation(dim_).rows, 2u);
}

TEST_F(PlannerTest, StatsAuditPassesCleanAndCatchesCorruption) {
  ASSERT_TRUE(db_->Insert({facts_, {Value("a"), Value("b")}}).ok());
  ColumnStats stats(db_.get());
  stats.ForRelation(facts_);
  EXPECT_TRUE(stats.AuditInvariants().ok());
  // A stale snapshot (edit after the read) is fine: laziness by design.
  ASSERT_TRUE(db_->Insert({facts_, {Value("c"), Value("d")}}).ok());
  EXPECT_TRUE(stats.AuditInvariants().ok());
  // A snapshot that *claims* freshness but lies must be caught: fake the
  // stamp without recomputing.
  ColumnStatsCorruptor::Snapshots(stats)[static_cast<size_t>(facts_)]
      .version = db_->relation(facts_).version();
  common::Status audit = stats.AuditInvariants();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("stamped fresh"), std::string::npos)
      << audit.message();
}

TEST_F(PlannerTest, StatsAuditCatchesUnsortedDomain) {
  ASSERT_TRUE(db_->Insert({dim_, {Value("x")}}).ok());
  ASSERT_TRUE(db_->Insert({dim_, {Value("y")}}).ok());
  ColumnStats stats(db_.get());
  stats.ForRelation(dim_);
  std::vector<RelationSummary>& snaps = ColumnStatsCorruptor::Snapshots(stats);
  std::vector<ValueId>& domain =
      snaps[static_cast<size_t>(dim_)].columns[0].domain;
  ASSERT_EQ(domain.size(), 2u);
  std::swap(domain[0], domain[1]);
  common::Status audit = stats.AuditInvariants();
  ASSERT_FALSE(audit.ok());
  EXPECT_NE(audit.message().find("domain"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Planner: root selection, tie-breaking, semi-join, infeasibility.
// ---------------------------------------------------------------------------

TEST_F(PlannerTest, RootPicksSmallestExactCount) {
  // Facts is large, Dim tiny: cost-based planning must root Dim even
  // though both atoms have zero bound positions (where a most-bound-first
  // rule alone would keep the written order).
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db_->Insert({facts_, {Value(std::to_string(i)), Value("t")}}).ok());
  }
  ASSERT_TRUE(db_->Insert({dim_, {Value("1")}}).ok());
  ASSERT_TRUE(db_->Insert({dim_, {Value("2")}}).ok());
  CQuery q = Parse("(x) :- Facts(x, y), Dim(x).");
  ColumnStats stats(db_.get());
  Planner planner(db_.get(), &stats);
  // Predict the suffix so the join evidence (connected flag) is filled in
  // for the assertion below.
  Plan plan = planner.MakePlan(q, Empty(q), /*predict_suffix=*/true);
  ASSERT_FALSE(plan.infeasible);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].atom, 1u);  // Dim.
  EXPECT_EQ(plan.steps[1].atom, 0u);
  EXPECT_TRUE(plan.steps[1].connected);
  // Without the prediction the plan holds only the root, all the
  // executor reads.
  Plan run_time = planner.MakePlan(q, Empty(q));
  ASSERT_EQ(run_time.steps.size(), 1u);
  EXPECT_EQ(run_time.steps[0].atom, 1u);
}

TEST_F(PlannerTest, RootTieBreaksOnBoundThenIndex) {
  // Equal candidate counts: more resolved positions wins; full tie keeps
  // the earlier atom. Both rules are part of the documented contract.
  ASSERT_TRUE(db_->Insert({facts_, {Value("a"), Value("t")}}).ok());
  ASSERT_TRUE(db_->Insert({dim_, {Value("a")}}).ok());
  CQuery with_const = Parse("(x) :- Dim(x), Facts(x, 't').");
  ColumnStats stats(db_.get());
  Planner planner(db_.get(), &stats);
  Plan plan = planner.MakePlan(with_const, Empty(with_const));
  // est: Dim=1 row, Facts('t' posting)=1 — tied; Facts has 1 bound
  // position, Dim none, so Facts roots.
  EXPECT_EQ(plan.steps[0].atom, 1u);

  CQuery symmetric = Parse("(x) :- Dim(x), Dim(x).");
  Plan tie = planner.MakePlan(symmetric, Empty(symmetric));
  EXPECT_EQ(tie.steps[0].atom, 0u);  // Full tie: earliest index.
}

TEST_F(PlannerTest, FullyResolvedAtomEstimatesAtMostOneRow) {
  // A ground atom over a relation with fat postings still estimates <= 1
  // (set semantics: at most one stored row can equal it) — this is what
  // roots pinned delta searches at the pinned atom even when every posting
  // list it touches is longer than the alternatives.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Insert({facts_,
                             {Value("k"), Value("tag" + std::to_string(i))}})
                    .ok());
  }
  ASSERT_TRUE(db_->Insert({facts_, {Value("k2"), Value("tag0")}}).ok());
  ASSERT_TRUE(db_->Insert({facts_, {Value("k3"), Value("tag0")}}).ok());
  ASSERT_TRUE(db_->Insert({dim_, {Value("a")}}).ok());
  ASSERT_TRUE(db_->Insert({dim_, {Value("b")}}).ok());
  // Atom 1 is ground with min posting 3 (> Dim's 2 candidates), but its
  // est collapses to 1, so it still roots.
  CQuery q = Parse("(x) :- Dim(x), Facts('k', 'tag0').");
  ColumnStats stats(db_.get());
  Planner planner(db_.get(), &stats);
  Plan plan = planner.MakePlan(q, Empty(q));
  ASSERT_FALSE(plan.infeasible);
  EXPECT_EQ(plan.steps[0].atom, 1u);
  EXPECT_DOUBLE_EQ(plan.steps[0].est, 1.0);
}

TEST_F(PlannerTest, DeadResolvedColumnIsInfeasible) {
  ASSERT_TRUE(db_->Insert({facts_, {Value("a"), Value("t")}}).ok());
  CQuery q = Parse("(x) :- Facts(x, 'never-stored').");
  ColumnStats stats(db_.get());
  Planner planner(db_.get(), &stats);
  Plan plan = planner.MakePlan(q, Empty(q));
  EXPECT_TRUE(plan.infeasible);
  // And evaluation agrees: empty result either way.
  Evaluator eval(db_.get());
  EXPECT_TRUE(eval.Evaluate(q).empty());
}

TEST_F(PlannerTest, GroundFalseInequalityIsInfeasible) {
  ASSERT_TRUE(db_->Insert({dim_, {Value("v")}}).ok());
  CQuery q = Parse("(x, y) :- Dim(x), Dim(y), x != y.");
  auto q_t = q.InstantiateAnswer({Value("v"), Value("v")});
  ASSERT_TRUE(q_t.ok());
  ColumnStats stats(db_.get());
  Planner planner(db_.get(), &stats);
  Plan plan = planner.MakePlan(*q_t, Empty(*q_t));
  EXPECT_TRUE(plan.infeasible);
}

TEST_F(PlannerTest, SemiJoinFiltersRootAndBuildsAllowedSets) {
  // 64 Facts keys, only 4 appear in Dim: the reduction must shrink the
  // root scan to the 4 joinable candidates and record the allowed set.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        db_->Insert({facts_, {Value(std::to_string(i)), Value("t")}}).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->Insert({dim_, {Value(std::to_string(i * 16))}}).ok());
  }
  // Root Dim (4 rows) is below the semi-join threshold; force Facts to
  // root by querying Facts alone against a huge Dim... instead simply make
  // Dim the big side.
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(db_->Insert({dim_, {Value(std::to_string(i))}}).ok());
  }
  CQuery q = Parse("(x) :- Facts(x, y), Dim(x).");
  ColumnStats stats(db_.get());
  Planner planner(db_.get(), &stats);
  Plan plan = planner.MakePlan(q, Empty(q));
  ASSERT_FALSE(plan.infeasible);
  EXPECT_EQ(plan.steps[0].atom, 0u);  // Facts: 64 rows < Dim's 104.
  EXPECT_TRUE(plan.semijoin);
  EXPECT_EQ(plan.root_prefilter, 64u);
  EXPECT_TRUE(plan.root_materialized);
  EXPECT_EQ(plan.root_candidates.size(), 4u);  // Only joinable keys.
  // x's allowed set is the Facts-key ∩ Dim-key domain.
  ASSERT_FALSE(plan.allowed.empty());
  EXPECT_EQ(plan.allowed[0].size(), 4u);
  // The reduced plan still computes the exact result.
  Evaluator eval(db_.get());
  EXPECT_EQ(eval.Evaluate(q).size(), 4u);
}

TEST_F(PlannerTest, EmptyDomainIntersectionIsInfeasible) {
  // Shared variable with disjoint column domains: provably empty.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        db_->Insert({facts_, {Value("f" + std::to_string(i)), Value("t")}})
            .ok());
    ASSERT_TRUE(db_->Insert({dim_, {Value("d" + std::to_string(i))}}).ok());
  }
  CQuery q = Parse("(x) :- Facts(x, y), Dim(x).");
  ColumnStats stats(db_.get());
  Planner planner(db_.get(), &stats);
  Plan plan = planner.MakePlan(q, Empty(q));
  EXPECT_TRUE(plan.infeasible);
  Evaluator eval(db_.get());
  EXPECT_TRUE(eval.Evaluate(q).empty());
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering.
// ---------------------------------------------------------------------------

TEST_F(PlannerTest, ExplainPlanRendersStepsAndSemiJoin) {
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        db_->Insert({facts_, {Value(std::to_string(i)), Value("t")}}).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->Insert({dim_, {Value(std::to_string(i))}}).ok());
  }
  CQuery q = Parse("(x) :- Facts(x, y), Dim(x).");
  Evaluator eval(db_.get());
  std::string text = eval.ExplainPlan(q);
  EXPECT_EQ(text.rfind("EXPLAIN (x) :- Facts(x, y), Dim(x)\n", 0), 0u)
      << text;
  EXPECT_NE(text.find("plan: 2 atoms, adaptive suffix"), std::string::npos)
      << text;
  EXPECT_NE(text.find("root scan"), std::string::npos) << text;
  // EXPLAIN predicts the suffix, so the step after the root carries an
  // estimate too.
  EXPECT_NE(text.find("2. Facts(x, y)  est="), std::string::npos) << text;
}

TEST_F(PlannerTest, ExplainPlanRendersInfeasible) {
  ASSERT_TRUE(db_->Insert({dim_, {Value("v")}}).ok());
  Evaluator eval(db_.get());
  CQuery q = Parse("(x) :- Dim(x), Dim(y), x != y.");
  auto q_t = q.InstantiateAnswer({Value("v")});
  ASSERT_TRUE(q_t.ok());
  // Not infeasible (one var left); check the trivially-empty Facts case.
  CQuery dead = Parse("(x) :- Facts(x, 'nothing').");
  std::string text = eval.ExplainPlan(dead);
  EXPECT_NE(text.find("infeasible"), std::string::npos) << text;
}

TEST(PlannerExplainEnvTest, CleanerDumpsPlanWhenAsked) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  crowd::SimulatedOracle oracle(sample->ground_truth.get());
  crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
  Database db = *sample->dirty;
  ASSERT_EQ(setenv("QOCO_EXPLAIN", "1", /*overwrite=*/1), 0);
  testing::internal::CaptureStderr();
  cleaning::QocoCleaner cleaner(sample->q1, &db, &panel,
                                cleaning::CleanerConfig{}, common::Rng(17));
  auto stats = cleaner.Run();
  std::string captured = testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("QOCO_EXPLAIN"), 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(captured.find("EXPLAIN " + sample->q1.ToString(db.catalog())),
            std::string::npos)
      << captured;
  EXPECT_NE(captured.find("plan:"), std::string::npos) << captured;
}

// ---------------------------------------------------------------------------
// Planned against unplanned execution on a targeted workload (the broad
// randomized check lives in planner_equivalence_test.cc).
// ---------------------------------------------------------------------------

TEST_F(PlannerTest, AllModesComputeTheSameResult) {
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(db_->Insert({facts_,
                             {Value(std::to_string(i % 10)),
                              Value("t" + std::to_string(i))}})
                    .ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->Insert({dim_, {Value(std::to_string(i))}}).ok());
  }
  CQuery q = Parse("(x, y) :- Facts(x, y), Dim(x).");
  Evaluator eval(db_.get());
  const std::vector<Tuple> planned = eval.Evaluate(q).AnswerTuples();
  // Any limit runs the unplanned engine; the largest lets it finish.
  std::set<Tuple> unplanned;
  for (const Assignment& a : eval.FindExtensions(
           q, Empty(q), std::numeric_limits<size_t>::max())) {
    unplanned.insert(*a.ApplyHead(q.head()));
  }
  EXPECT_EQ(std::set<Tuple>(planned.begin(), planned.end()), unplanned);
  EXPECT_EQ(planned.size(), 40u);  // 5 joinable keys x 8 tags.
}

}  // namespace
}  // namespace qoco::query
