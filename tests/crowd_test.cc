// Unit tests for the crowd layer: the simulated (perfect) oracle, the
// imperfect oracle's seeded error behaviour, the panel's majority voting,
// question caching and accounting, question signatures, and the
// enumeration estimator.

#include <gtest/gtest.h>

#include <string>

#include "src/crowd/async_oracle.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/enumeration_estimator.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/parser.h"
#include "src/workload/figure_one.h"

namespace qoco::crowd {
namespace {

using relational::Fact;
using relational::Tuple;
using relational::Value;

class SimulatedOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sample = workload::MakeFigureOneSample();
    ASSERT_TRUE(sample.ok());
    s_ = std::make_unique<workload::FigureOneSample>(std::move(sample).value());
    oracle_ = std::make_unique<SimulatedOracle>(s_->ground_truth.get());
  }

  std::unique_ptr<workload::FigureOneSample> s_;
  std::unique_ptr<SimulatedOracle> oracle_;
};

TEST_F(SimulatedOracleTest, FactQuestions) {
  EXPECT_TRUE(oracle_->IsFactTrue({s_->teams, {Value("GER"), Value("EU")}}));
  EXPECT_FALSE(oracle_->IsFactTrue({s_->teams, {Value("BRA"), Value("EU")}}));
  // Missing-from-D but true fact.
  EXPECT_TRUE(oracle_->IsFactTrue({s_->teams, {Value("ITA"), Value("EU")}}));
}

TEST_F(SimulatedOracleTest, AnswerQuestions) {
  EXPECT_TRUE(oracle_->IsAnswerTrue(s_->q1, Tuple{Value("GER")}));
  EXPECT_TRUE(oracle_->IsAnswerTrue(s_->q1, Tuple{Value("ITA")}));
  EXPECT_FALSE(oracle_->IsAnswerTrue(s_->q1, Tuple{Value("ESP")}));
  EXPECT_FALSE(oracle_->IsAnswerTrue(s_->q1, Tuple{Value("XXX")}));
}

TEST_F(SimulatedOracleTest, CompleteExtendsSatisfiablePartials) {
  auto q_t = s_->q2.InstantiateAnswer(Tuple{Value("Andrea Pirlo")});
  ASSERT_TRUE(q_t.ok());
  query::Assignment empty(q_t->num_vars(), &s_->ground_truth->dict());
  std::optional<query::Assignment> completion =
      oracle_->Complete(*q_t, empty);
  ASSERT_TRUE(completion.has_value());
  // The completion is a valid witness over DG.
  for (const query::Atom& atom : q_t->atoms()) {
    std::optional<Fact> fact = completion->GroundAtom(atom);
    ASSERT_TRUE(fact.has_value());
    EXPECT_TRUE(s_->ground_truth->Contains(*fact));
  }
}

TEST_F(SimulatedOracleTest, CompleteReturnsNullForUnsatisfiable) {
  auto q_t = s_->q2.InstantiateAnswer(Tuple{Value("Francesco Totti")});
  ASSERT_TRUE(q_t.ok());
  // Totti scored no goal in DG: no witness exists.
  EXPECT_FALSE(
      oracle_->Complete(*q_t, query::Assignment(q_t->num_vars(),
                                                  &s_->ground_truth->dict()))
          .has_value());
}

TEST_F(SimulatedOracleTest, MissingAnswerEnumerates) {
  std::optional<Tuple> missing = oracle_->MissingAnswer(s_->q1, {});
  ASSERT_TRUE(missing.has_value());
  std::optional<Tuple> second =
      oracle_->MissingAnswer(s_->q1, {*missing});
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*missing, *second);
  EXPECT_FALSE(
      oracle_->MissingAnswer(s_->q1, {*missing, *second}).has_value());
}

TEST(ImperfectOracleTest, ZeroErrorRateIsPerfect) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  ImperfectOracle oracle(s.ground_truth.get(), 0.0, 1);
  SimulatedOracle truth(s.ground_truth.get());
  for (const Fact& f : s.dirty->AllFacts()) {
    EXPECT_EQ(oracle.IsFactTrue(f), truth.IsFactTrue(f));
  }
}

TEST(ImperfectOracleTest, ErrorRateApproximatelyRespected) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  ImperfectOracle oracle(s.ground_truth.get(), 0.3, 7);
  SimulatedOracle truth(s.ground_truth.get());
  Fact probe{s.teams, {Value("GER"), Value("EU")}};
  int wrong = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (oracle.IsFactTrue(probe) != truth.IsFactTrue(probe)) ++wrong;
  }
  double rate = static_cast<double>(wrong) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(ImperfectOracleTest, DeterministicGivenSeed) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  ImperfectOracle a(s.ground_truth.get(), 0.5, 99);
  ImperfectOracle b(s.ground_truth.get(), 0.5, 99);
  Fact probe{s.teams, {Value("GER"), Value("EU")}};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.IsFactTrue(probe), b.IsFactTrue(probe));
  }
}

/// A scripted oracle for testing the panel's vote mechanics.
class ScriptedOracle : public Oracle {
 public:
  explicit ScriptedOracle(bool answer) : answer_(answer) {}

  bool IsFactTrue(const relational::Fact&) override {
    ++asked_;
    return answer_;
  }
  bool IsAnswerTrue(const query::CQuery&, const relational::Tuple&) override {
    ++asked_;
    return answer_;
  }
  bool IsAnswerTrue(const query::UnionQuery&,
                    const relational::Tuple&) override {
    ++asked_;
    return answer_;
  }
  std::optional<query::Assignment> Complete(
      const query::CQuery&, const query::Assignment&) override {
    ++asked_;
    return std::nullopt;
  }
  std::optional<relational::Tuple> MissingAnswer(
      const query::CQuery&, const std::vector<relational::Tuple>&) override {
    ++asked_;
    return std::nullopt;
  }
  std::optional<relational::Tuple> MissingAnswer(
      const query::UnionQuery&,
      const std::vector<relational::Tuple>&) override {
    ++asked_;
    return std::nullopt;
  }

  int asked() const { return asked_; }

 private:
  bool answer_;
  int asked_ = 0;
};

TEST(CrowdPanelTest, MajorityVoteStopsEarlyOnAgreement) {
  ScriptedOracle yes1(true);
  ScriptedOracle yes2(true);
  ScriptedOracle never(true);
  CrowdPanel panel({&yes1, &yes2, &never}, PanelConfig{3});
  EXPECT_TRUE(panel.VerifyFact({0, {Value(1)}}));
  // Two agreeing answers decide; the third member is not consulted.
  EXPECT_EQ(panel.counts().member_answers, 2u);
  EXPECT_EQ(yes1.asked() + yes2.asked() + never.asked(), 2);
}

TEST(CrowdPanelTest, FactBatchVoteStopsEarlyOnAgreement) {
  // Algorithm 1 asks its fact questions through VerifyFactsBatch, batch
  // size 1 included; they get the same vote as VerifyFact.
  ScriptedOracle yes1(true);
  ScriptedOracle yes2(true);
  ScriptedOracle never(true);
  CrowdPanel panel({&yes1, &yes2, &never}, PanelConfig{3});
  EXPECT_EQ(panel.VerifyFactsBatch({{0, {Value(1)}}}), std::vector<bool>{true});
  EXPECT_EQ(panel.counts().verify_fact, 1u);
  EXPECT_EQ(panel.counts().member_answers, 2u);
  EXPECT_EQ(yes1.asked() + yes2.asked() + never.asked(), 2);
}

TEST(CrowdPanelTest, MajorityOverridesMinority) {
  ScriptedOracle no1(false);
  ScriptedOracle yes(true);
  ScriptedOracle no2(false);
  CrowdPanel panel({&no1, &yes, &no2}, PanelConfig{3});
  EXPECT_FALSE(panel.VerifyFact({0, {Value(1)}}));
  EXPECT_EQ(panel.counts().member_answers, 3u);  // 1 no, 1 yes, 1 no
}

TEST(CrowdPanelTest, FactCacheNeverRepeatsAQuestion) {
  ScriptedOracle yes(true);
  CrowdPanel panel({&yes}, PanelConfig{1});
  Fact f{0, {Value(1)}};
  EXPECT_TRUE(panel.VerifyFact(f));
  EXPECT_TRUE(panel.VerifyFact(f));
  EXPECT_TRUE(panel.VerifyFact(f));
  EXPECT_EQ(panel.counts().verify_fact, 1u);
  EXPECT_EQ(yes.asked(), 1);
}

TEST(CrowdPanelTest, SampleSizeClampedToPanel) {
  ScriptedOracle only(true);
  CrowdPanel panel({&only}, PanelConfig{3});
  EXPECT_TRUE(panel.VerifyFact({0, {Value(1)}}));
  EXPECT_EQ(panel.counts().member_answers, 1u);
}

TEST(CrowdPanelTest, CompleteCountsFilledVariables) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle oracle(s.ground_truth.get());
  CrowdPanel panel({&oracle}, PanelConfig{1});
  auto q_t = s.q2.InstantiateAnswer(Tuple{Value("Andrea Pirlo")});
  ASSERT_TRUE(q_t.ok());
  query::Assignment empty(q_t->num_vars(), &s.ground_truth->dict());
  auto completion = panel.Complete(*q_t, empty);
  ASSERT_TRUE(completion.has_value());
  // Q2|Pirlo has 6 variables; the oracle filled all of them.
  EXPECT_EQ(panel.counts().filled_variables, 6u);
  EXPECT_EQ(panel.counts().complete_tasks, 1u);
}

TEST(CrowdPanelTest, VerifyPartialBodySkipsNonGroundAtoms) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  SimulatedOracle oracle(s.ground_truth.get());
  CrowdPanel panel({&oracle}, PanelConfig{1});
  auto q_t = s.q2.InstantiateAnswer(Tuple{Value("Andrea Pirlo")});
  ASSERT_TRUE(q_t.ok());
  // Bind only y (the team): Teams(ITA, EU) becomes ground and true; other
  // atoms stay non-ground and cost nothing.
  query::Assignment partial(q_t->num_vars(), &s.ground_truth->dict());
  for (query::VarId v = 0; v < static_cast<query::VarId>(q_t->num_vars());
       ++v) {
    if (q_t->var_name(v) == "y") partial.Bind(v, Value("ITA"));
  }
  EXPECT_TRUE(panel.VerifyPartialBody(*q_t, partial));
  EXPECT_EQ(panel.counts().verify_fact, 1u);

  // Binding y to a wrong continent team makes the ground fact false.
  query::Assignment bad(q_t->num_vars(), &s.ground_truth->dict());
  for (query::VarId v = 0; v < static_cast<query::VarId>(q_t->num_vars());
       ++v) {
    if (q_t->var_name(v) == "y") bad.Bind(v, Value("BRA"));
  }
  EXPECT_FALSE(panel.VerifyPartialBody(*q_t, bad));
}

TEST(CrowdPanelTest, ImperfectCompletionRejectedByVerification) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto s = std::move(sample).value();
  // One always-corrupting member plus reliable verifiers: the panel must
  // reject corrupted completions and fall through to a correct member.
  ImperfectOracle liar(s.ground_truth.get(), 1.0, 3);
  SimulatedOracle honest1(s.ground_truth.get());
  SimulatedOracle honest2(s.ground_truth.get());
  CrowdPanel panel({&liar, &honest1, &honest2}, PanelConfig{3});
  auto q_t = s.q2.InstantiateAnswer(Tuple{Value("Andrea Pirlo")});
  ASSERT_TRUE(q_t.ok());
  auto completion = panel.Complete(
      *q_t, query::Assignment(q_t->num_vars(), &s.ground_truth->dict()));
  ASSERT_TRUE(completion.has_value());
  for (const query::Atom& atom : q_t->atoms()) {
    std::optional<Fact> fact = completion->GroundAtom(atom);
    ASSERT_TRUE(fact.has_value());
    EXPECT_TRUE(s.ground_truth->Contains(*fact))
        << "accepted corrupted fact " << s.dirty->FactToString(*fact);
  }
}

/// A catalog with one binary relation R, for signature and cache-key tests.
class SignatureTest : public ::testing::Test {
 protected:
  void SetUp() override { r_ = *catalog_.AddRelation("R", {"a", "b"}); }

  query::CQuery Parse(const std::string& text) {
    auto q = query::ParseQuery(text, catalog_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  relational::Catalog catalog_;
  relational::RelationId r_ = relational::kInvalidRelation;
};

TEST_F(SignatureTest, ValuesOfDifferentTypeOrWithCommasSignApart) {
  auto fact = [&](Value a, Value b) {
    return Question::FactTrue({r_, {std::move(a), std::move(b)}}).Signature();
  };
  EXPECT_NE(fact(Value("a, b"), Value("c")), fact(Value("a"), Value("b, c")));
  EXPECT_NE(fact(Value(5), Value("c")), fact(Value("5"), Value("c")));
  EXPECT_NE(fact(Value(), Value("c")), fact(Value("NULL"), Value("c")));
  // Values that need no quoting keep their display rendering.
  EXPECT_EQ(fact(Value("a"), Value(5)), "F||0|(a, 5)");

  const query::CQuery q = Parse("(x, y) :- R(x, y).");
  EXPECT_NE(Question::AnswerTrue(q, {Value("a, b"), Value("c")}).Signature(),
            Question::AnswerTrue(q, {Value("a"), Value("b, c")}).Signature());
  EXPECT_NE(
      Question::MissingAnswer(q, {{Value("a, b"), Value("c")}}).Signature(),
      Question::MissingAnswer(q, {{Value("a"), Value("b, c")}}).Signature());
  query::Assignment five(q.num_vars(), &catalog_.dict());
  query::Assignment five_text = five;
  five.Bind(0, Value(5));
  five_text.Bind(0, Value("5"));
  EXPECT_NE(Question::Complete(q, five).Signature(),
            Question::Complete(q, five_text).Signature());
  EXPECT_NE(Parse("(x) :- R(x, 5).").Signature(),
            Parse("(x) :- R(x, '5').").Signature());
}

TEST_F(SignatureTest, PanelAsksAgainForATupleThatOnlyRendersAlike) {
  relational::Database truth(&catalog_);
  ASSERT_TRUE(truth.Insert({r_, {Value("a, b"), Value("c")}}).ok());
  SimulatedOracle oracle(&truth);
  CrowdPanel panel({&oracle}, PanelConfig{1});
  const query::CQuery q = Parse("(x, y) :- R(x, y).");
  EXPECT_TRUE(panel.VerifyAnswer(q, {Value("a, b"), Value("c")}));
  EXPECT_FALSE(panel.VerifyAnswer(q, {Value("a"), Value("b, c")}));
  EXPECT_EQ(panel.counts().verify_answer, 2u);
}

TEST_F(SignatureTest, SeparatorsInsideValuesKeepKeysApart) {
  // The set {("x);(y")} is not the set {("x"), ("y")}, and binding slot 0
  // to "x);1=(y" is not binding slots 0 and 1 to "x" and "y".
  const query::CQuery q = Parse("(x) :- R(x, y).");
  auto missing = [&](std::vector<Tuple> current) {
    return Question::MissingAnswer(q, std::move(current)).Signature();
  };
  auto complete = [&](const query::Assignment& partial) {
    return Question::Complete(q, partial).Signature();
  };
  EXPECT_NE(missing({{Value("x);(y")}}), missing({{Value("x")}, {Value("y")}}));
  query::Assignment joined(q.num_vars(), &catalog_.dict());
  query::Assignment split = joined;
  joined.Bind(0, Value("x);1=(y"));
  split.Bind(0, Value("x"));
  split.Bind(1, Value("y"));
  EXPECT_NE(complete(joined), complete(split));
  // Keys without ';' or a backslash keep their bytes.
  EXPECT_EQ(missing({{Value("y")}, {Value("x")}}),
            "M||v0,:-R0(v0,v1,)|(x);(y);");
  EXPECT_EQ(complete(split), "C||v0,:-R0(v0,v1,)|0=(x);1=(y);");
}

TEST_F(SignatureTest, SeparatorsInsideQueryConstantsKeepQueriesApart) {
  // A ';' or a "!=" inside a constant is not the end of an inequality or
  // the operator between its sides.
  const query::CQuery semicolon = Parse("(x) :- R(x, y), x != 'a;v1!=cb'.");
  const query::CQuery two = Parse("(x) :- R(x, y), x != 'a', y != 'b'.");
  EXPECT_NE(semicolon.Signature(), two.Signature());
  EXPECT_NE(Parse("(x) :- R(x, y), 'a' != 'v1!=v0'.").Signature(),
            Parse("(x) :- R(x, y), 'a!=cv1' != x.").Signature());
  // Unions whose disjuncts differ that way sign apart too.
  auto union_answer = [&](const std::string& text) {
    auto u = query::ParseUnionQuery(text, catalog_);
    EXPECT_TRUE(u.ok()) << u.status().ToString();
    return Question::AnswerTrue(*u, {Value("a")}).Signature();
  };
  EXPECT_NE(
      union_answer("(x) :- R(x, y), x != 'a;v1!=cb'; (x) :- R(y, x)."),
      union_answer("(x) :- R(x, y), x != 'a', y != 'b'; (x) :- R(y, x)."));
  // A backslash in a constant is escaped too, so a constant ending in one
  // cannot swallow the separator after it.
  EXPECT_NE(
      Parse("(x) :- R(x, y), 'a\\' != 'b\\', x != y.").Signature(),
      Parse("(x) :- R(x, y), 'a!=cb;v0' != y.").Signature());
  // Constants without a backslash, '!' or ';' keep their bytes.
  EXPECT_EQ(two.Signature(), "v0,:-R0(v0,v1,)v0!=ca;v1!=cb;");
  EXPECT_EQ(union_answer("(x) :- R(x, y), x != 'a'; (x) :- R(y, x)."),
            "UA||v0,:-R0(v0,v1,)v0!=ca;;v0,:-R0(v1,v0,)|(a)");
}

TEST(EnumerationEstimatorTest, StopsAfterConfiguredNulls) {
  EnumerationEstimator estimator(2);
  EXPECT_FALSE(estimator.IsLikelyComplete());
  estimator.RecordReply(std::nullopt);
  EXPECT_FALSE(estimator.IsLikelyComplete());
  estimator.RecordReply(Tuple{Value(1)});  // resets the null run
  estimator.RecordReply(std::nullopt);
  EXPECT_FALSE(estimator.IsLikelyComplete());
  estimator.RecordReply(std::nullopt);
  EXPECT_TRUE(estimator.IsLikelyComplete());
}

}  // namespace
}  // namespace qoco::crowd
