// Property tests for the NP-hardness reduction constructions of Theorems
// 4.2 and 5.2: the reductions produce instances whose cleaning behaviour
// corresponds exactly to the source combinatorial problem.

#include "tests/reductions.h"

#include <gtest/gtest.h>

#include "src/cleaning/add_missing_answer.h"
#include "src/cleaning/edit.h"
#include "src/cleaning/remove_wrong_answer.h"
#include "src/common/rng.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"

namespace qoco::cleaning {
namespace {

using relational::Tuple;
using relational::Value;

TEST(DeletionReductionTest, PaperExampleStructure) {
  // The worked example in the Theorem 4.2 proof: U = {u0..u3},
  // S = {{u1,u2,u3}, {u0,u1}}.
  hittingset::Instance instance{4, {{1, 2, 3}, {0, 1}}};
  auto reduction = BuildDeletionHardnessInstance(instance);
  ASSERT_TRUE(reduction.ok()) << reduction.status().ToString();

  query::Evaluator dirty_eval(reduction->dirty.get());
  query::EvalResult result = dirty_eval.Evaluate(reduction->query);
  // Q(D) = {(d)} with one witness per set of S.
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.answers()[0].tuple, reduction->target);
  EXPECT_EQ(result.answers()[0].witnesses.size(), instance.sets.size());

  query::Evaluator truth_eval(reduction->ground_truth.get());
  EXPECT_TRUE(truth_eval.Evaluate(reduction->query).empty());
}

TEST(DeletionReductionTest, ManualHittingSetDeletionRemovesAnswer) {
  hittingset::Instance instance{4, {{1, 2, 3}, {0, 1}}};
  auto reduction = BuildDeletionHardnessInstance(instance);
  ASSERT_TRUE(reduction.ok());
  // {u1} is a hitting set: deleting R1(u1) alone removes the answer.
  relational::Database db = *reduction->dirty;
  auto r1 = reduction->catalog->FindRelation("R1");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(db.Erase({*r1, {Value("u1")}}).ok());
  query::Evaluator eval(&db);
  EXPECT_TRUE(eval.Evaluate(reduction->query).empty());

  // A non-hitting singleton {u0} does not: set {u1,u2,u3} survives.
  relational::Database db2 = *reduction->dirty;
  auto r0 = reduction->catalog->FindRelation("R0");
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(db2.Erase({*r0, {Value("u0")}}).ok());
  query::Evaluator eval2(&db2);
  EXPECT_FALSE(eval2.Evaluate(reduction->query).empty());
}

class DeletionReductionPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeletionReductionPropertyTest, AlgorithmOneSolvesReducedInstances) {
  common::Rng rng(GetParam());
  // Random hitting-set instance.
  hittingset::Instance instance;
  instance.num_elements = 3 + rng.Index(4);
  size_t num_sets = 2 + rng.Index(4);
  for (size_t s = 0; s < num_sets; ++s) {
    std::set<int> set;
    size_t size = 1 + rng.Index(3);
    for (size_t i = 0; i < size; ++i) {
      set.insert(static_cast<int>(rng.Index(instance.num_elements)));
    }
    instance.sets.emplace_back(set.begin(), set.end());
  }

  auto reduction = BuildDeletionHardnessInstance(instance);
  ASSERT_TRUE(reduction.ok());

  crowd::SimulatedOracle oracle(reduction->ground_truth.get());
  crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
  common::Rng algo_rng(GetParam() * 13 + 1);
  query::EvalResult dirty_result =
      query::Evaluator(reduction->dirty.get()).Evaluate(reduction->query);
  ASSERT_TRUE(dirty_result.ContainsAnswer(reduction->target));
  auto removal = RemoveWrongAnswerFromWitnesses(
      dirty_result.Find(reduction->target)->witnesses, &panel,
      DeletionPolicy::kQoco, &algo_rng);
  ASSERT_TRUE(removal.ok());

  // Applying the edits removes the target answer...
  relational::Database db = *reduction->dirty;
  ASSERT_TRUE(ApplyEdits(removal->edits, &db).ok());
  query::Evaluator eval(&db);
  EXPECT_TRUE(eval.Evaluate(reduction->query).empty());

  // ...and the deleted R_i(u_i) facts correspond to a hitting set of the
  // source instance (deleted wide-relation facts kill their own set, which
  // the element view treats as hit for free -- so check combined
  // coverage per witness instead).
  relational::Database replay = *reduction->dirty;
  for (const Edit& e : removal->edits) {
    EXPECT_EQ(e.kind, Edit::Kind::kDelete);
    EXPECT_FALSE(reduction->ground_truth->Contains(e.fact))
        << "deleted a true fact";
    ASSERT_TRUE(ApplyEdits({e}, &replay).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DeletionReductionPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

TEST(InsertionReductionTest, RejectsEmptyInput) {
  EXPECT_FALSE(BuildInsertionHardnessInstance({}, 3).ok());
  EXPECT_FALSE(
      BuildInsertionHardnessInstance({Clause3{{0, 1, 2}, {true, true, true}}},
                                     0)
          .ok());
}

TEST(InsertionReductionTest, GroundTruthEncodesSatisfyingRows) {
  // Clause (X0 + X1 + !X2): 7 satisfying rows out of 8.
  Clause3 clause{{0, 1, 2}, {true, true, false}};
  auto reduction = BuildInsertionHardnessInstance({clause}, 3);
  ASSERT_TRUE(reduction.ok());
  auto c0 = reduction->catalog->FindRelation("C0");
  ASSERT_TRUE(c0.ok());
  EXPECT_EQ(reduction->ground_truth->relation(*c0).size(), 7u);
  // The one non-satisfying combination (0, 0, 1) is absent.
  EXPECT_FALSE(reduction->ground_truth->Contains(
      {*c0, {Value("d"), Value(0), Value(0), Value(1)}}));
  // D is empty and (d) is a missing answer.
  EXPECT_EQ(reduction->dirty->TotalFacts(), 0u);
  query::Evaluator truth_eval(reduction->ground_truth.get());
  EXPECT_TRUE(
      truth_eval.Evaluate(reduction->query).ContainsAnswer(reduction->target));
}

class InsertionReductionPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InsertionReductionPropertyTest,
       AlgorithmTwoRecoversSatisfyingAssignments) {
  common::Rng rng(GetParam());
  // Random satisfiable 3CNF: draw a hidden assignment, then emit clauses
  // satisfied by it.
  int num_vars = 3 + static_cast<int>(rng.Index(3));
  std::vector<bool> hidden(num_vars);
  for (int v = 0; v < num_vars; ++v) hidden[v] = rng.Chance(0.5);
  std::vector<Clause3> clauses;
  size_t num_clauses = 2 + rng.Index(3);
  for (size_t c = 0; c < num_clauses; ++c) {
    Clause3 clause;
    bool satisfied = false;
    while (!satisfied) {
      for (int j = 0; j < 3; ++j) {
        clause.var[j] = static_cast<int>(rng.Index(num_vars));
        clause.positive[j] = rng.Chance(0.5);
        if (hidden[clause.var[j]] == clause.positive[j]) satisfied = true;
      }
    }
    clauses.push_back(clause);
  }

  auto reduction = BuildInsertionHardnessInstance(clauses, num_vars);
  ASSERT_TRUE(reduction.ok());

  crowd::SimulatedOracle oracle(reduction->ground_truth.get());
  crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
  common::Rng algo_rng(GetParam() * 7 + 5);
  relational::Database db = *reduction->dirty;
  auto insertion =
      AddMissingAnswer(reduction->query, &db, reduction->target, &panel,
                       InsertionConfig{}, &algo_rng);
  ASSERT_TRUE(insertion.ok());
  EXPECT_TRUE(insertion->succeeded);

  // Extract the implied boolean assignment from the inserted facts: the
  // target answer's witness must encode values that satisfy every clause.
  query::Evaluator eval(&db);
  query::EvalResult result = eval.Evaluate(reduction->query);
  const query::AnswerInfo* info = result.Find(reduction->target);
  ASSERT_NE(info, nullptr);
  ASSERT_FALSE(info->assignments.empty());
  const query::Assignment& a = info->assignments.front();
  for (const Clause3& clause : clauses) {
    bool satisfied = false;
    for (int j = 0; j < 3; ++j) {
      query::VarId var = static_cast<query::VarId>(1 + clause.var[j]);
      ASSERT_TRUE(a.IsBound(var));
      bool value = a.ValueOf(var) == Value(1);
      if (value == clause.positive[j]) satisfied = true;
    }
    EXPECT_TRUE(satisfied) << "clause unsatisfied; seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, InsertionReductionPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace qoco::cleaning
