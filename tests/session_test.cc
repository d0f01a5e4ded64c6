// Tests for the qoco::Session facade: cross-view verdict caching, journal
// accumulation, and every view language through one entry point.

#include "src/qoco/qoco.h"

#include <gtest/gtest.h>

#include "src/workload/figure_one.h"

namespace qoco {
namespace {

using relational::Tuple;
using relational::Value;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sample = workload::MakeFigureOneSample();
    ASSERT_TRUE(sample.ok());
    s_ = std::make_unique<workload::FigureOneSample>(std::move(sample).value());
    oracle_ = std::make_unique<crowd::SimulatedOracle>(s_->ground_truth.get());
  }

  std::unique_ptr<workload::FigureOneSample> s_;
  std::unique_ptr<crowd::SimulatedOracle> oracle_;
};

TEST_F(SessionTest, CleanViewFromText) {
  relational::Database db = *s_->dirty;
  Session session(&db, {oracle_.get()});
  auto stats = session.CleanView(
      "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
      "Teams(x, 'EU'), d1 != d2.");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->wrong_answers_removed, 1u);
  EXPECT_EQ(stats->missing_answers_added, 1u);
  EXPECT_FALSE(session.journal().contents().empty());
}

TEST_F(SessionTest, ParseErrorsSurface) {
  relational::Database db = *s_->dirty;
  Session session(&db, {oracle_.get()});
  EXPECT_FALSE(session.CleanView("(x) :- Nope(x).").ok());
  EXPECT_FALSE(session.CleanView("garbage").ok());
}

TEST_F(SessionTest, MultipleViewsShareTheQuestionCache) {
  relational::Database db = *s_->dirty;
  Session session(&db, {oracle_.get()});
  ASSERT_TRUE(session.CleanView(s_->q1).ok());
  crowd::QuestionCounts after_first = session.questions();
  // Q2 touches overlapping facts (the Spanish finals are gone already;
  // the Teams facts verified for Q1 stay cached).
  ASSERT_TRUE(session.CleanView(s_->q2).ok());
  crowd::QuestionCounts after_second = session.questions();
  EXPECT_GE(after_second.verify_fact, after_first.verify_fact);

  // Both views now match the truth.
  query::Evaluator eval(&db);
  query::Evaluator truth(s_->ground_truth.get());
  EXPECT_EQ(eval.Evaluate(s_->q1).AnswerTuples(),
            truth.Evaluate(s_->q1).AnswerTuples());
  EXPECT_EQ(eval.Evaluate(s_->q2).AnswerTuples(),
            truth.Evaluate(s_->q2).AnswerTuples());
}

TEST_F(SessionTest, JournalReplaysToTheCleanedState) {
  std::string snapshot = relational::DatabaseToCsv(*s_->dirty);
  relational::Database db = *s_->dirty;
  Session session(&db, {oracle_.get()});
  ASSERT_TRUE(session.CleanView(s_->q1).ok());
  ASSERT_TRUE(session.CleanView(s_->q2).ok());

  auto recovered = relational::RecoverDatabase(
      s_->catalog.get(), snapshot, session.journal().contents());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->Distance(db), 0u);
}

TEST_F(SessionTest, UnionAndAggregateEntryPoints) {
  relational::Database db = *s_->dirty;
  Session session(&db, {oracle_.get()});
  auto union_stats = session.CleanUnionView(
      "(x) :- Teams(x, 'EU'); (x) :- Teams(x, 'SA').");
  ASSERT_TRUE(union_stats.ok()) << union_stats.status().ToString();

  auto base = query::ParseQuery(
      "(x, d) :- Games(d, x, y, 'Final', u), Teams(x, 'EU').",
      *s_->catalog);
  ASSERT_TRUE(base.ok());
  auto agg = query::AggregateQuery::Make(
      std::move(base).value(), 1, query::AggregateQuery::Cmp::kAtLeast, 2);
  ASSERT_TRUE(agg.ok());
  auto agg_stats = session.CleanAggregateView(*agg);
  ASSERT_TRUE(agg_stats.ok()) << agg_stats.status().ToString();

  query::AggregateEvaluator cleaned(&db);
  query::AggregateEvaluator truth(s_->ground_truth.get());
  EXPECT_EQ(cleaned.AnswerTuples(*agg), truth.AnswerTuples(*agg));
}

}  // namespace
}  // namespace qoco
