// Tests for the reliability-weighted vote aggregator (the pluggable
// black-box aggregation of Section 6.2).

#include <gtest/gtest.h>

#include <memory>

#include "src/crowd/crowd_panel.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/simulated_oracle.h"
#include "src/workload/figure_one.h"

namespace qoco::crowd {
namespace {

using relational::Fact;

TEST(WeightedVotingTest, LearnsToDiscountUnreliableMembers) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();

  SimulatedOracle honest1(s.ground_truth.get());
  SimulatedOracle honest2(s.ground_truth.get());
  ImperfectOracle liar(s.ground_truth.get(), 1.0, 3);
  PanelConfig config;
  config.sample_size = 3;
  config.weighted_voting = true;
  CrowdPanel panel({&honest1, &honest2, &liar}, config);

  // Warm up on a batch of facts so agreement statistics accumulate.
  SimulatedOracle truth(s.ground_truth.get());
  for (const Fact& f : s.dirty->AllFacts()) {
    EXPECT_EQ(panel.VerifyFact(f), truth.IsFactTrue(f))
        << s.dirty->FactToString(f);
  }
  // The liar's reliability estimate must have fallen well below the
  // honest members'.
  EXPECT_GT(panel.MemberReliability(0), 0.8);
  EXPECT_GT(panel.MemberReliability(1), 0.8);
  EXPECT_LT(panel.MemberReliability(2), 0.2);
}

TEST(WeightedVotingTest, CompositeQuestionsUpdateReliabilityPerFact) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle honest1(s.ground_truth.get());
  SimulatedOracle honest2(s.ground_truth.get());
  ImperfectOracle liar(s.ground_truth.get(), 1.0, 3);
  PanelConfig config;
  config.sample_size = 3;
  config.composite_batch_size = 4;
  config.weighted_voting = true;
  CrowdPanel panel({&honest1, &honest2, &liar}, config);

  // One composite of four facts: every sampled member answers it once,
  // and agreement is counted per fact.
  std::vector<Fact> facts = s.dirty->AllFacts();
  facts.resize(4);
  std::vector<bool> verdicts = panel.VerifyFactsBatch(facts);
  SimulatedOracle truth(s.ground_truth.get());
  for (size_t i = 0; i < facts.size(); ++i) {
    EXPECT_EQ(verdicts[i], truth.IsFactTrue(facts[i]));
  }
  EXPECT_EQ(panel.counts().verify_fact, 1u);
  EXPECT_EQ(panel.counts().member_answers, 3u);
  EXPECT_DOUBLE_EQ(panel.MemberReliability(0), 5.0 / 6.0);
  EXPECT_DOUBLE_EQ(panel.MemberReliability(1), 5.0 / 6.0);
  EXPECT_DOUBLE_EQ(panel.MemberReliability(2), 1.0 / 6.0);
}

TEST(WeightedVotingTest, DefaultsToHalfWithNoHistory) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle oracle(s.ground_truth.get());
  PanelConfig config;
  config.sample_size = 1;
  config.weighted_voting = true;
  CrowdPanel panel({&oracle}, config);
  EXPECT_DOUBLE_EQ(panel.MemberReliability(0), 0.5);
  EXPECT_DOUBLE_EQ(panel.MemberReliability(99), 0.5);  // out of range
}

TEST(WeightedVotingTest, AgreesWithMajorityForUniformMembers) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle a(s.ground_truth.get());
  SimulatedOracle b(s.ground_truth.get());
  SimulatedOracle c(s.ground_truth.get());

  PanelConfig weighted;
  weighted.sample_size = 3;
  weighted.weighted_voting = true;
  CrowdPanel weighted_panel({&a, &b, &c}, weighted);

  PanelConfig majority;
  majority.sample_size = 3;
  CrowdPanel majority_panel({&a, &b, &c}, majority);

  for (const Fact& f : s.dirty->AllFacts()) {
    EXPECT_EQ(weighted_panel.VerifyFact(f), majority_panel.VerifyFact(f));
  }
}

TEST(WeightedVotingTest, ReliabilityRankingTracksAccuracy) {
  // Agreement-based learning is self-consistent: it can only separate
  // members when panel decisions are mostly correct. With a good member
  // and moderately noisy peers the learned reliability must rank the
  // members by their true accuracy, and weighted voting must not be
  // meaningfully worse than plain majority.
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle truth(s.ground_truth.get());

  auto run = [&](bool weighted, uint64_t seed,
                 std::unique_ptr<CrowdPanel>* out_panel,
                 std::vector<std::unique_ptr<Oracle>>* members) {
    members->clear();
    members->push_back(std::make_unique<SimulatedOracle>(s.ground_truth.get()));
    members->push_back(std::make_unique<ImperfectOracle>(
        s.ground_truth.get(), 0.2, seed));
    members->push_back(std::make_unique<ImperfectOracle>(
        s.ground_truth.get(), 0.35, seed + 1));
    PanelConfig config;
    config.sample_size = 3;
    config.weighted_voting = weighted;
    *out_panel = std::make_unique<CrowdPanel>(
        std::vector<Oracle*>{(*members)[0].get(), (*members)[1].get(),
                             (*members)[2].get()},
        config);
    CrowdPanel* panel = out_panel->get();
    size_t wrong = 0;
    size_t asked = 0;
    for (int sweep = 0; sweep < 6; ++sweep) {
      for (const Fact& base : s.dirty->AllFacts()) {
        Fact f = base;
        f.tuple.back() = relational::Value(
            f.tuple.back().ToString() + "#" + std::to_string(sweep));
        bool expected = truth.IsFactTrue(f);
        if (panel->VerifyFact(f) != expected) ++wrong;
        ++asked;
      }
    }
    return static_cast<double>(wrong) / static_cast<double>(asked);
  };

  std::vector<std::unique_ptr<Oracle>> members;
  std::unique_ptr<CrowdPanel> weighted_panel;
  double weighted_err = run(true, 5, &weighted_panel, &members);
  // Learned ranking matches the true accuracies 1.0 > 0.8 > 0.65.
  EXPECT_GT(weighted_panel->MemberReliability(0),
            weighted_panel->MemberReliability(1));
  EXPECT_GT(weighted_panel->MemberReliability(1),
            weighted_panel->MemberReliability(2));

  std::vector<std::unique_ptr<Oracle>> members2;
  std::unique_ptr<CrowdPanel> majority_panel;
  double majority_err = run(false, 5, &majority_panel, &members2);

  EXPECT_LE(weighted_err, majority_err + 0.05);
}

}  // namespace
}  // namespace qoco::crowd
