// Tests for the composite-question extension (Section 9 future work):
// batched fact verification reduces question counts without changing
// outcomes.

#include <gtest/gtest.h>

#include "src/cleaning/remove_wrong_answer.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"
#include "src/workload/figure_one.h"

namespace qoco::crowd {
namespace {

using relational::Fact;
using relational::Tuple;
using relational::Value;

TEST(CompositeQuestionsTest, BatchVerdictsMatchSingles) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle oracle(s.ground_truth.get());

  std::vector<Fact> facts = s.dirty->AllFacts();
  PanelConfig batched_config;
  batched_config.composite_batch_size = 4;
  CrowdPanel batched({&oracle}, batched_config);
  CrowdPanel singles({&oracle}, PanelConfig{});

  std::vector<bool> batch_verdicts = batched.VerifyFactsBatch(facts);
  for (size_t i = 0; i < facts.size(); ++i) {
    EXPECT_EQ(batch_verdicts[i], singles.VerifyFact(facts[i]))
        << s.dirty->FactToString(facts[i]);
  }
  // Question volume shrinks by the batch factor.
  EXPECT_EQ(singles.counts().verify_fact, facts.size());
  EXPECT_EQ(batched.counts().verify_fact, (facts.size() + 3) / 4);
}

TEST(CompositeQuestionsTest, CachedFactsCostNothing) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle oracle(s.ground_truth.get());
  PanelConfig config;
  config.composite_batch_size = 3;
  CrowdPanel panel({&oracle}, config);

  std::vector<Fact> facts = {s.dirty->AllFacts()[0], s.dirty->AllFacts()[1]};
  panel.VerifyFactsBatch(facts);
  size_t before = panel.counts().verify_fact;
  panel.VerifyFactsBatch(facts);  // everything cached now
  EXPECT_EQ(panel.counts().verify_fact, before);
}

TEST(CompositeQuestionsTest, DuplicatesWithinOneBatchAskedOnce) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle oracle(s.ground_truth.get());
  PanelConfig config;
  config.composite_batch_size = 8;
  CrowdPanel panel({&oracle}, config);

  Fact f = s.dirty->AllFacts().front();
  std::vector<bool> verdicts = panel.VerifyFactsBatch({f, f, f});
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(verdicts[1], verdicts[2]);
  EXPECT_EQ(panel.counts().verify_fact, 1u);
}

TEST(CompositeQuestionsTest, BatchedDeletionGivesSameEditsFewerQuestions) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle oracle(s.ground_truth.get());
  query::EvalResult evaluated = query::Evaluator(s.dirty.get()).Evaluate(s.q1);
  ASSERT_TRUE(evaluated.ContainsAnswer(Tuple{Value("ESP")}));
  const provenance::WitnessSet& esp =
      evaluated.Find(Tuple{Value("ESP")})->witnesses;

  auto run = [&](size_t batch) {
    PanelConfig config;
    config.composite_batch_size = batch;
    CrowdPanel panel({&oracle}, config);
    common::Rng rng(11);
    auto result = cleaning::RemoveWrongAnswerFromWitnesses(
        esp, &panel, cleaning::DeletionPolicy::kQoco, &rng);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result->edits.size(),
                          panel.counts().verify_fact);
  };

  auto [single_edits, single_questions] = run(1);
  auto [batched_edits, batched_questions] = run(3);
  // The same false tuples are deleted either way...
  EXPECT_EQ(single_edits, batched_edits);
  // ...but the composite run asks no more (typically fewer) questions.
  EXPECT_LE(batched_questions, single_questions);

  // Either way the answer is removed.
  relational::Database db = *s.dirty;
  PanelConfig config;
  config.composite_batch_size = 3;
  CrowdPanel panel({&oracle}, config);
  common::Rng rng(11);
  auto result = cleaning::RemoveWrongAnswerFromWitnesses(
      esp, &panel, cleaning::DeletionPolicy::kQoco, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(cleaning::ApplyEdits(result->edits, &db).ok());
  query::Evaluator eval(&db);
  EXPECT_FALSE(eval.Evaluate(s.q1).ContainsAnswer(Tuple{Value("ESP")}));
}

TEST(CompositeQuestionsTest, MajorityVotingWorksPerFactInBatch) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  // Two honest members outvote one always-wrong member per fact.
  SimulatedOracle honest1(s.ground_truth.get());
  SimulatedOracle honest2(s.ground_truth.get());
  ImperfectOracle liar(s.ground_truth.get(), 1.0, 7);
  PanelConfig config;
  config.sample_size = 3;
  config.composite_batch_size = 4;
  CrowdPanel panel({&honest1, &liar, &honest2}, config);

  SimulatedOracle truth(s.ground_truth.get());
  std::vector<Fact> facts = s.dirty->AllFacts();
  std::vector<bool> verdicts = panel.VerifyFactsBatch(facts);
  for (size_t i = 0; i < facts.size(); ++i) {
    EXPECT_EQ(verdicts[i], truth.IsFactTrue(facts[i]));
  }
}

}  // namespace
}  // namespace qoco::crowd
