// Algorithm 1 tests: the Example 4.6 walkthrough, policy comparisons,
// correctness invariants (only false facts deleted; the wrong answer is
// gone afterwards; QOCO never asks more than QOCO-), and independence
// from the order and repeats of the witness list.

#include "src/cleaning/remove_wrong_answer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cleaning/edit.h"
#include "src/cleaning/trust.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/workload/figure_one.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco {
namespace {

using cleaning::DeletionPolicy;
using cleaning::RemoveResult;
using cleaning::RemoveWrongAnswerFromWitnesses;
using relational::Tuple;
using relational::Value;

class RemoveWrongAnswerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sample = workload::MakeFigureOneSample();
    ASSERT_TRUE(sample.ok());
    s_ = std::make_unique<workload::FigureOneSample>(std::move(sample).value());
    oracle_ = std::make_unique<crowd::SimulatedOracle>(s_->ground_truth.get());
    query::EvalResult result =
        query::Evaluator(s_->dirty.get()).Evaluate(s_->q1);
    ASSERT_TRUE(result.ContainsAnswer(Tuple{Value("ESP")}));
    esp_ = result.Find(Tuple{Value("ESP")})->witnesses;
  }

  RemoveResult Run(DeletionPolicy policy, uint64_t seed) {
    crowd::CrowdPanel panel({oracle_.get()}, crowd::PanelConfig{1});
    common::Rng rng(seed);
    auto result = RemoveWrongAnswerFromWitnesses(esp_, &panel, policy, &rng);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::unique_ptr<workload::FigureOneSample> s_;
  std::unique_ptr<crowd::SimulatedOracle> oracle_;
  /// Example 4.6: the witnesses of the wrong answer ESP of Q1(D).
  provenance::WitnessSet esp_;
};

TEST_F(RemoveWrongAnswerTest, Example46UpperBoundIsFiveDistinctFacts) {
  RemoveResult r = Run(DeletionPolicy::kQoco, 1);
  // t1, t2, t4, t5 (games) + t3 (Teams) = 5 distinct witness facts.
  EXPECT_EQ(r.distinct_witness_facts, 5u);
}

TEST_F(RemoveWrongAnswerTest, DeletesExactlyTheFalseSpanishWins) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RemoveResult r = Run(DeletionPolicy::kQoco, seed);
    // The three fabricated wins (98, 94, 78) form the only all-false
    // hitting set reachable by correct answers.
    EXPECT_EQ(r.edits.size(), 3u) << "seed " << seed;
    for (const cleaning::Edit& e : r.edits) {
      EXPECT_EQ(e.kind, cleaning::Edit::Kind::kDelete);
      EXPECT_FALSE(s_->ground_truth->Contains(e.fact))
          << "deleted a true fact: " << s_->dirty->FactToString(e.fact);
    }
  }
}

TEST_F(RemoveWrongAnswerTest, RemovalEliminatesTheWrongAnswer) {
  for (DeletionPolicy policy :
       {DeletionPolicy::kQoco, DeletionPolicy::kQocoMinus,
        DeletionPolicy::kRandom}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      RemoveResult r = Run(policy, seed);
      relational::Database db = *s_->dirty;
      ASSERT_TRUE(cleaning::ApplyEdits(r.edits, &db).ok());
      query::Evaluator eval(&db);
      EXPECT_FALSE(
          eval.Evaluate(s_->q1).ContainsAnswer(Tuple{Value("ESP")}))
          << cleaning::DeletionPolicyName(policy) << " seed " << seed;
      // The correct answer GER must survive.
      EXPECT_TRUE(eval.Evaluate(s_->q1).ContainsAnswer(Tuple{Value("GER")}));
    }
  }
}

TEST_F(RemoveWrongAnswerTest, QocoNeverAsksMoreThanUpperBound) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RemoveResult r = Run(DeletionPolicy::kQoco, seed);
    EXPECT_LE(r.questions_asked, r.distinct_witness_facts);
    // The unique-minimal-hitting-set shortcut saves at least one question
    // on this instance (the last two deletions are inferred).
    EXPECT_LT(r.questions_asked, r.distinct_witness_facts);
  }
}

TEST_F(RemoveWrongAnswerTest, QocoMinusAsksAtLeastAsMuchAsQoco) {
  double qoco_total = 0;
  double minus_total = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    qoco_total += static_cast<double>(Run(DeletionPolicy::kQoco, seed).questions_asked);
    minus_total += static_cast<double>(
        Run(DeletionPolicy::kQocoMinus, seed).questions_asked);
  }
  EXPECT_LE(qoco_total, minus_total);
}

TEST_F(RemoveWrongAnswerTest, AbsentAnswerYieldsNoEdits) {
  // FRA is no answer of Q1(D), so it has no witness to hit.
  query::Evaluator eval(s_->dirty.get());
  ASSERT_FALSE(eval.Evaluate(s_->q1).ContainsAnswer(Tuple{Value("FRA")}));
  crowd::CrowdPanel panel({oracle_.get()}, crowd::PanelConfig{1});
  common::Rng rng(7);
  auto result = RemoveWrongAnswerFromWitnesses({}, &panel,
                                               DeletionPolicy::kQoco, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->edits.empty());
  EXPECT_EQ(panel.counts().verify_fact, 0u);
}

TEST_F(RemoveWrongAnswerTest, SingletonWitnessesNeedNoQuestions) {
  // A wrong answer whose witnesses are all singletons has a unique minimal
  // hitting set (Theorem 4.5): QOCO derives the edits without any crowd
  // question.
  relational::Catalog catalog;
  auto r = catalog.AddRelation("R", {"z", "x"});
  ASSERT_TRUE(r.ok());
  relational::Database d(&catalog);
  relational::Database g(&catalog);
  ASSERT_TRUE(d.Insert({*r, {Value("d"), Value("a")}}).ok());
  ASSERT_TRUE(d.Insert({*r, {Value("d"), Value("b")}}).ok());

  auto q = query::ParseQuery("(z) :- R(z, x).", catalog);
  ASSERT_TRUE(q.ok());
  query::EvalResult evaluated = query::Evaluator(&d).Evaluate(*q);
  ASSERT_TRUE(evaluated.ContainsAnswer(Tuple{Value("d")}));
  const provenance::WitnessSet& witnesses =
      evaluated.Find(Tuple{Value("d")})->witnesses;
  crowd::SimulatedOracle oracle(&g);
  crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
  common::Rng rng(3);
  auto result = RemoveWrongAnswerFromWitnesses(witnesses, &panel,
                                               DeletionPolicy::kQoco, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->edits.size(), 2u);
  EXPECT_EQ(panel.counts().verify_fact, 0u);

  // QOCO- on the same instance pays for both facts.
  crowd::CrowdPanel panel_minus({&oracle}, crowd::PanelConfig{1});
  auto minus = RemoveWrongAnswerFromWitnesses(
      witnesses, &panel_minus, DeletionPolicy::kQocoMinus, &rng);
  ASSERT_TRUE(minus.ok());
  EXPECT_EQ(panel_minus.counts().verify_fact, 2u);
}

/// A perfect crowd member that logs every fact question, in order.
class RecordingOracle : public crowd::SimulatedOracle {
 public:
  RecordingOracle(const relational::Database* ground_truth,
                  const relational::Database* db, std::vector<std::string>* log)
      : SimulatedOracle(ground_truth), db_(db), log_(log) {}

  bool IsFactTrue(const relational::Fact& fact) override {
    log_->push_back(db_->FactToString(fact));
    return SimulatedOracle::IsFactTrue(fact);
  }

 private:
  const relational::Database* db_;
  std::vector<std::string>* log_;
};

TEST_F(RemoveWrongAnswerTest, DependsOnlyOnTheWitnessSet) {
  // Algorithm 1 is defined over the witness *set* of t. Every policy, with
  // single and composite fact questions, must make the same edits after
  // the same questions when the list is reversed, rotated or holds a
  // witness twice. The wrong answers of a 2x Games dirty instance have
  // lists on which first-seen element numbering changes the run.
  workload::SoccerParams params;
  params.group_games_per_tournament = 24;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  const relational::Database& truth = *data->ground_truth;
  workload::NoiseParams noise;
  noise.cleanliness = 0.8;
  noise.skew = 1.0;
  noise.seed = 5;
  auto dirty = workload::MakeDirty(truth, noise);
  ASSERT_TRUE(dirty.ok());
  cleaning::NoisyGroundTruthTrust trust(&truth, 0.2, 3);

  // One run, rendered: the edits, the fact questions in order, and the
  // RemoveResult counters.
  auto run = [&](const provenance::WitnessSet& witnesses, DeletionPolicy policy,
                 size_t batch) {
    std::vector<std::string> log;
    RecordingOracle oracle(&truth, &*dirty, &log);
    crowd::PanelConfig config;
    config.composite_batch_size = batch;
    crowd::CrowdPanel panel({&oracle}, config);
    common::Rng rng(17);
    auto result = RemoveWrongAnswerFromWitnesses(witnesses, &panel, policy,
                                                 &rng, &trust);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    for (const cleaning::Edit& e : result->edits) {
      log.push_back("edit " + cleaning::EditToString(e, *dirty));
    }
    log.push_back("facts " + std::to_string(result->distinct_witness_facts) +
                  " questions " + std::to_string(result->questions_asked));
    return log;
  };

  size_t wrong_answers = 0;
  for (size_t qi = 1; qi <= 5; ++qi) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    query::EvalResult truth_result = query::Evaluator(&truth).Evaluate(*q);
    query::EvalResult dirty_result = query::Evaluator(&*dirty).Evaluate(*q);
    for (const query::AnswerInfo& info : dirty_result.answers()) {
      if (truth_result.ContainsAnswer(info.tuple)) continue;
      ++wrong_answers;
      const std::string answer = relational::TupleToString(info.tuple);
      const provenance::WitnessSet& listed = info.witnesses;
      provenance::WitnessSet reversed(listed.rbegin(), listed.rend());
      provenance::WitnessSet rotated = listed;
      std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
      provenance::WitnessSet repeated = listed;
      repeated.push_back(listed[listed.size() / 2]);
      for (DeletionPolicy policy :
           {DeletionPolicy::kQoco, DeletionPolicy::kQocoMinus,
            DeletionPolicy::kRandom, DeletionPolicy::kResponsibility,
            DeletionPolicy::kLeastTrusted}) {
        for (size_t batch : {1, 3}) {
          std::string where = "Q";
          where += std::to_string(qi) + " " + answer;
          where += std::string(" ") + cleaning::DeletionPolicyName(policy);
          where += " batch " + std::to_string(batch);
          SCOPED_TRACE(where);
          const std::vector<std::string> want = run(listed, policy, batch);
          EXPECT_EQ(run(reversed, policy, batch), want) << "reversed";
          EXPECT_EQ(run(rotated, policy, batch), want) << "rotated";
          EXPECT_EQ(run(repeated, policy, batch), want) << "repeated";
        }
      }
    }
  }
  EXPECT_GT(wrong_answers, 0u);
}

}  // namespace
}  // namespace qoco
