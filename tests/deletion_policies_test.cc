// Tests for the alternative deletion heuristics of Section 4
// (responsibility and least-trusted-first) and the TrustModel machinery.

#include <gtest/gtest.h>

#include "src/cleaning/remove_wrong_answer.h"
#include "src/cleaning/trust.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"
#include "src/workload/figure_one.h"

namespace qoco::cleaning {
namespace {

using relational::Tuple;
using relational::Value;

class DeletionPoliciesTest : public ::testing::Test {
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

  std::unique_ptr<workload::FigureOneSample> s_;
  std::unique_ptr<crowd::SimulatedOracle> oracle_;
  /// The witnesses of the wrong answer ESP of Q1(D).
  provenance::WitnessSet esp_;
};

TEST_F(DeletionPoliciesTest, AllPoliciesRemoveTheWrongAnswer) {
  NoisyGroundTruthTrust trust(s_->ground_truth.get(), 0.2, 5);
  for (DeletionPolicy policy :
       {DeletionPolicy::kResponsibility, DeletionPolicy::kLeastTrusted}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      crowd::CrowdPanel panel({oracle_.get()}, crowd::PanelConfig{1});
      common::Rng rng(seed);
      auto result = RemoveWrongAnswerFromWitnesses(esp_, &panel, policy,
                                                   &rng, &trust);
      ASSERT_TRUE(result.ok());
      relational::Database db = *s_->dirty;
      ASSERT_TRUE(ApplyEdits(result->edits, &db).ok());
      query::Evaluator eval(&db);
      EXPECT_FALSE(eval.Evaluate(s_->q1).ContainsAnswer(Tuple{Value("ESP")}))
          << DeletionPolicyName(policy) << " seed " << seed;
      for (const Edit& e : result->edits) {
        EXPECT_FALSE(s_->ground_truth->Contains(e.fact));
      }
    }
  }
}

TEST_F(DeletionPoliciesTest, AccurateTrustBeatsRandom) {
  // A perfectly informative trust signal lets least-trusted-first target
  // the false facts directly, asking no more questions than Random.
  NoisyGroundTruthTrust sharp_trust(s_->ground_truth.get(), 0.0, 1);
  double trusted_total = 0;
  double random_total = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    {
      crowd::CrowdPanel panel({oracle_.get()}, crowd::PanelConfig{1});
      common::Rng rng(seed);
      auto result = RemoveWrongAnswerFromWitnesses(
          esp_, &panel, DeletionPolicy::kLeastTrusted, &rng, &sharp_trust);
      ASSERT_TRUE(result.ok());
      trusted_total += static_cast<double>(result->questions_asked);
    }
    {
      crowd::CrowdPanel panel({oracle_.get()}, crowd::PanelConfig{1});
      common::Rng rng(seed);
      auto result = RemoveWrongAnswerFromWitnesses(
          esp_, &panel, DeletionPolicy::kRandom, &rng);
      ASSERT_TRUE(result.ok());
      random_total += static_cast<double>(result->questions_asked);
    }
  }
  EXPECT_LE(trusted_total, random_total);
}

TEST_F(DeletionPoliciesTest, ResponsibilityPrefersCounterfactualTuples) {
  // Example 4.6's witness structure: Teams(ESP, EU) appears in all six
  // witnesses; its contingency set (the witnesses without it) is empty,
  // so its responsibility is 1 and it is asked first -- the same first
  // question QOCO's most-frequent rule would pick.
  crowd::CrowdPanel panel({oracle_.get()}, crowd::PanelConfig{1});
  common::Rng rng(2);
  auto result = RemoveWrongAnswerFromWitnesses(
      esp_, &panel, DeletionPolicy::kResponsibility, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->edits.size(), 3u);
}

TEST(TrustModelTest, UniformTrustIsConstant) {
  UniformTrust trust;
  EXPECT_EQ(trust.Trust({0, {Value(1)}}), 1.0);
  EXPECT_EQ(trust.Trust({3, {Value("x")}}), 1.0);
}

TEST(TrustModelTest, NoisyTrustSeparatesTrueFromFalse) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  NoisyGroundTruthTrust trust(s.ground_truth.get(), 0.1, 9);
  for (const relational::Fact& f : s.dirty->AllFacts()) {
    double score = trust.Trust(f);
    if (s.ground_truth->Contains(f)) {
      EXPECT_GT(score, 0.5) << s.dirty->FactToString(f);
    } else {
      EXPECT_LT(score, 0.5) << s.dirty->FactToString(f);
    }
    // Deterministic.
    EXPECT_EQ(score, trust.Trust(f));
  }
}

}  // namespace
}  // namespace qoco::cleaning
