// Unit tests for the workload generators: Soccer referential integrity and
// determinism, DBGroup planted-error structure, and the noise module's
// cleanliness/skew math and planting guarantees.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "src/common/strings.h"
#include "src/query/evaluator.h"
#include "src/relational/csv.h"
#include "src/workload/dbgroup.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco::workload {
namespace {

using relational::Database;
using relational::Tuple;
using relational::Value;

class SoccerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = MakeSoccerData(SoccerParams{});
    ASSERT_TRUE(data.ok());
    data_ = std::make_unique<SoccerData>(std::move(data).value());
  }
  static void TearDownTestSuite() { data_.reset(); }

  static std::unique_ptr<SoccerData> data_;
};

std::unique_ptr<SoccerData> SoccerTest::data_;

TEST_F(SoccerTest, ScaleIsComparableToThePaper) {
  // The paper's Soccer database has ~5000 tuples.
  size_t total = data_->ground_truth->TotalFacts();
  EXPECT_GT(total, 3000u);
  EXPECT_LT(total, 8000u);
}

TEST_F(SoccerTest, ReferentialIntegrity) {
  const Database& db = *data_->ground_truth;
  std::set<Value> teams;
  for (const relational::ITuple& irow : db.relation(data_->teams).rows()) {
    Tuple row = relational::MaterializeTuple(irow, db.dict());
    teams.insert(row[0]);
  }
  std::set<Value> players;
  for (const relational::ITuple& irow : db.relation(data_->players).rows()) {
    Tuple row = relational::MaterializeTuple(irow, db.dict());
    players.insert(row[0]);
    EXPECT_TRUE(teams.contains(row[1])) << "player with unknown team";
  }
  std::set<Value> stages;
  std::set<Value> dates;
  for (const relational::ITuple& irow : db.relation(data_->stages).rows()) {
    Tuple row = relational::MaterializeTuple(irow, db.dict());
    stages.insert(row[0]);
  }
  for (const relational::ITuple& irow : db.relation(data_->games).rows()) {
    Tuple row = relational::MaterializeTuple(irow, db.dict());
    EXPECT_TRUE(teams.contains(row[1])) << "unknown winner";
    EXPECT_TRUE(teams.contains(row[2])) << "unknown runner-up";
    EXPECT_TRUE(stages.contains(row[3])) << "unknown stage";
    EXPECT_NE(row[1], row[2]) << "team plays itself";
    dates.insert(row[0]);
  }
  for (const relational::ITuple& irow : db.relation(data_->goals).rows()) {
    Tuple row = relational::MaterializeTuple(irow, db.dict());
    EXPECT_TRUE(players.contains(row[0])) << "unknown scorer";
    EXPECT_TRUE(dates.contains(row[1])) << "goal on a date with no game";
  }
  for (const relational::ITuple& irow : db.relation(data_->clubs).rows()) {
    Tuple row = relational::MaterializeTuple(irow, db.dict());
    EXPECT_TRUE(players.contains(row[0])) << "club stint of unknown player";
  }
}

TEST_F(SoccerTest, GameDatesAreUniquePerGame) {
  // Dates are join keys between Games and Goals; two games must never
  // share a date.
  std::set<Value> dates;
  for (const relational::ITuple& irow : data_->ground_truth->relation(data_->games).rows()) {
    Tuple row = relational::MaterializeTuple(irow, data_->ground_truth->dict());
    EXPECT_TRUE(dates.insert(row[0]).second)
        << "duplicate game date " << row[0].ToString();
  }
}

TEST_F(SoccerTest, EveryTournamentHasOneFinalPerYear) {
  std::set<std::string> final_years;
  for (const relational::ITuple& irow : data_->ground_truth->relation(data_->games).rows()) {
    Tuple row = relational::MaterializeTuple(irow, data_->ground_truth->dict());
    if (row[3] == Value("Final")) {
      std::string year = row[0].AsString().substr(6);  // DD.MM.YY
      EXPECT_TRUE(final_years.insert(year).second)
          << "two finals in year " << year;
    }
  }
  EXPECT_EQ(final_years.size(), SoccerParams{}.num_tournaments);
}

TEST_F(SoccerTest, DeterministicForSeed) {
  auto again = MakeSoccerData(SoccerParams{});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ground_truth->Distance(*data_->ground_truth), 0u);

  SoccerParams other;
  other.seed = 999;
  auto different = MakeSoccerData(other);
  ASSERT_TRUE(different.ok());
  EXPECT_GT(different->ground_truth->Distance(*data_->ground_truth), 0u);
}

TEST_F(SoccerTest, AllFiveQueriesParseAndHaveAnswers) {
  for (size_t i = 1; i <= 5; ++i) {
    auto q = SoccerQuery(i, *data_->catalog);
    ASSERT_TRUE(q.ok()) << "Q" << i;
    query::Evaluator eval(data_->ground_truth.get());
    EXPECT_FALSE(eval.Evaluate(*q).empty()) << "Q" << i;
  }
  EXPECT_FALSE(SoccerQuery(0, *data_->catalog).ok());
  EXPECT_FALSE(SoccerQuery(6, *data_->catalog).ok());
}

TEST_F(SoccerTest, QueryThreeExcludesAsianTeams) {
  auto q = SoccerQuery(3, *data_->catalog);
  ASSERT_TRUE(q.ok());
  query::Evaluator eval(data_->ground_truth.get());
  std::set<Value> asian;
  for (const relational::ITuple& irow : data_->ground_truth->relation(data_->teams).rows()) {
    Tuple row = relational::MaterializeTuple(irow, data_->ground_truth->dict());
    if (row[1] == Value("AS")) asian.insert(row[0]);
  }
  for (const Tuple& answer : eval.Evaluate(*q).AnswerTuples()) {
    EXPECT_FALSE(asian.contains(answer[0]))
        << answer[0].ToString() << " is Asian";
  }
}

TEST(NoiseTest, MakeDirtyMatchesCleanlinessAndSkew) {
  auto data = MakeSoccerData(SoccerParams{});
  ASSERT_TRUE(data.ok());
  const Database& truth = *data->ground_truth;

  for (double cleanliness : {0.6, 0.8, 0.95}) {
    for (double skew : {0.0, 0.5, 1.0}) {
      NoiseParams params{cleanliness, skew, /*seed=*/3};
      auto dirty = MakeDirty(truth, params);
      ASSERT_TRUE(dirty.ok());
      // Measure the achieved cleanliness and skew.
      size_t false_facts = 0;
      for (const relational::Fact& f : dirty->AllFacts()) {
        if (!truth.Contains(f)) ++false_facts;
      }
      size_t missing = 0;
      for (const relational::Fact& f : truth.AllFacts()) {
        if (!dirty->Contains(f)) ++missing;
      }
      double achieved_clean =
          static_cast<double>(dirty->TotalFacts() - false_facts) /
          static_cast<double>(dirty->TotalFacts() + missing);
      EXPECT_NEAR(achieved_clean, cleanliness, 0.02)
          << "cleanliness " << cleanliness << " skew " << skew;
      if (false_facts + missing > 0) {
        double achieved_skew =
            static_cast<double>(false_facts) /
            static_cast<double>(false_facts + missing);
        EXPECT_NEAR(achieved_skew, skew, 0.05);
      }
    }
  }
}

TEST(NoiseTest, MakeDirtyKeepsItsBytes) {
  // The dirty instance is a function of the ground truth and the seed. Pin
  // one per skew (hash and length of its CSV), so a change to how the
  // noise is drawn shows even where cleanliness and skew still match.
  auto data = MakeSoccerData(SoccerParams{});
  ASSERT_TRUE(data.ok());
  struct Pin {
    double skew;
    uint64_t hash;
    size_t bytes;
  };
  for (const Pin& pin : {Pin{0.0, 0x7b49b0caa60d19ffULL, 83838},
                         Pin{0.5, 0xf69dc31394b98710ULL, 104752},
                         Pin{1.0, 0x3008ff9fd68eda55ULL, 131057}}) {
    auto dirty = MakeDirty(*data->ground_truth, {0.8, pin.skew, /*seed=*/3});
    ASSERT_TRUE(dirty.ok());
    std::string csv = relational::DatabaseToCsv(*dirty);
    EXPECT_EQ(csv.size(), pin.bytes) << "skew " << pin.skew;
    EXPECT_EQ(common::StableHash64(csv), pin.hash) << "skew " << pin.skew;
  }
}

TEST(NoiseTest, MakeDirtyRejectsBadParams) {
  auto data = MakeSoccerData(SoccerParams{});
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(MakeDirty(*data->ground_truth, {0.0, 0.5, 1}).ok());
  EXPECT_FALSE(MakeDirty(*data->ground_truth, {1.5, 0.5, 1}).ok());
  EXPECT_FALSE(MakeDirty(*data->ground_truth, {0.8, -0.1, 1}).ok());
  EXPECT_FALSE(MakeDirty(*data->ground_truth, {0.8, 1.1, 1}).ok());
}

class PlantErrorsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PlantErrorsTest, PlantsRequestedErrorCounts) {
  auto data = MakeSoccerData(SoccerParams{});
  ASSERT_TRUE(data.ok());
  size_t qi = GetParam();
  auto q = SoccerQuery(qi, *data->catalog);
  ASSERT_TRUE(q.ok());
  auto planted = PlantErrors(*q, *data->ground_truth, 3, 3, /*seed=*/17);
  ASSERT_TRUE(planted.ok());
  // The reported lists are exactly Q(D)\Q(DG) and Q(DG)\Q(D).
  query::Evaluator dirty_eval(&planted->db);
  query::Evaluator truth_eval(data->ground_truth.get());
  std::set<Tuple> dirty_answers;
  for (const Tuple& t : dirty_eval.Evaluate(*q).AnswerTuples()) {
    dirty_answers.insert(t);
  }
  std::set<Tuple> truth_answers;
  for (const Tuple& t : truth_eval.Evaluate(*q).AnswerTuples()) {
    truth_answers.insert(t);
  }
  for (const Tuple& t : planted->wrong) {
    EXPECT_TRUE(dirty_answers.contains(t));
    EXPECT_FALSE(truth_answers.contains(t));
  }
  for (const Tuple& t : planted->missing) {
    EXPECT_FALSE(dirty_answers.contains(t));
    EXPECT_TRUE(truth_answers.contains(t));
  }
  // Queries with enough answers get exactly what was asked.
  EXPECT_LE(planted->wrong.size(), 3u + 1);  // minor overshoot tolerated
  EXPECT_GE(planted->wrong.size(), qi == 1 ? 1u : 3u);
  EXPECT_LE(planted->missing.size(), 3u + 1);
}

INSTANTIATE_TEST_SUITE_P(SoccerQueries, PlantErrorsTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DbGroupTest, ScaleAndPlantedStructure) {
  auto data = MakeDbGroupData(DbGroupParams{});
  ASSERT_TRUE(data.ok());
  EXPECT_GT(data->dirty->TotalFacts(), 1000u);
  ASSERT_EQ(data->report_queries.size(), 4u);

  // Exactly 5 wrong and 7 missing answers across the four queries.
  size_t wrong = 0;
  size_t missing = 0;
  for (const query::CQuery& q : data->report_queries) {
    query::Evaluator dirty_eval(data->dirty.get());
    query::Evaluator truth_eval(data->ground_truth.get());
    std::set<Tuple> d_ans;
    for (const Tuple& t : dirty_eval.Evaluate(q).AnswerTuples()) {
      d_ans.insert(t);
    }
    std::set<Tuple> g_ans;
    for (const Tuple& t : truth_eval.Evaluate(q).AnswerTuples()) {
      g_ans.insert(t);
    }
    for (const Tuple& t : d_ans) {
      if (!g_ans.contains(t)) ++wrong;
    }
    for (const Tuple& t : g_ans) {
      if (!d_ans.contains(t)) ++missing;
    }
  }
  EXPECT_EQ(wrong, 5u);
  EXPECT_EQ(missing, 7u);
}

TEST(DbGroupTest, DeterministicForSeed) {
  auto a = MakeDbGroupData(DbGroupParams{});
  auto b = MakeDbGroupData(DbGroupParams{});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->dirty->Distance(*b->dirty), 0u);
  EXPECT_EQ(a->ground_truth->Distance(*b->ground_truth), 0u);
}

}  // namespace
}  // namespace qoco::workload
