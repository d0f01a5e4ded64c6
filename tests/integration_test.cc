// End-to-end integration sweeps over the Soccer workload: for every paper
// query, deletion policy and split strategy, a planted-error database is
// cleaned to convergence by a perfect oracle (the central guarantee of
// Propositions 3.3/3.4), the edit log only ever moves the database toward
// the ground truth, and a majority-voting imperfect panel converges at
// realistic error rates.

#include <gtest/gtest.h>

#include <cctype>

#include "src/cleaning/cleaner.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco {
namespace {

using cleaning::CleanerConfig;
using cleaning::DeletionPolicy;
using cleaning::QocoCleaner;
using cleaning::SplitStrategy;
using relational::Tuple;

const workload::SoccerData& Soccer() {
  static workload::SoccerData data =
      std::move(workload::MakeSoccerData(workload::SoccerParams{})).value();
  return data;
}

std::vector<Tuple> Result(const query::CQuery& q,
                          const relational::Database& db) {
  query::Evaluator eval(&db);
  return eval.Evaluate(q).AnswerTuples();
}

struct SweepCase {
  size_t query_index;
  DeletionPolicy policy;
  SplitStrategy strategy;
};

class PerfectOracleSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PerfectOracleSweep, ConvergesAndOnlyCorrectEdits) {
  const workload::SoccerData& data = Soccer();
  const SweepCase& c = GetParam();
  auto q = workload::SoccerQuery(c.query_index, *data.catalog);
  ASSERT_TRUE(q.ok());
  auto planted =
      workload::PlantErrors(*q, *data.ground_truth, 3, 3, /*seed=*/41);
  ASSERT_TRUE(planted.ok());

  crowd::SimulatedOracle oracle(data.ground_truth.get());
  crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
  relational::Database db = planted->db;
  CleanerConfig config;
  config.deletion_policy = c.policy;
  config.insertion.strategy = c.strategy;
  QocoCleaner cleaner(*q, &db, &panel, config, common::Rng(13));
  auto stats = cleaner.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // The view converged to the ground truth view.
  EXPECT_EQ(Result(*q, db), Result(*q, *data.ground_truth));

  // With a perfect oracle every edit is individually correct.
  for (const cleaning::Edit& e : stats->edits) {
    if (e.kind == cleaning::Edit::Kind::kDelete) {
      EXPECT_FALSE(data.ground_truth->Contains(e.fact));
    } else {
      EXPECT_TRUE(data.ground_truth->Contains(e.fact));
    }
  }

  // Proposition 3.3: the database only moves toward the ground truth.
  EXPECT_LE(db.Distance(*data.ground_truth),
            planted->db.Distance(*data.ground_truth));
}

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (size_t qi = 1; qi <= 5; ++qi) {
    for (DeletionPolicy policy :
         {DeletionPolicy::kQoco, DeletionPolicy::kQocoMinus,
          DeletionPolicy::kRandom}) {
      cases.push_back({qi, policy, SplitStrategy::kProvenance});
    }
    for (SplitStrategy strategy :
         {SplitStrategy::kNaive, SplitStrategy::kRandom,
          SplitStrategy::kMinCut}) {
      cases.push_back({qi, DeletionPolicy::kQoco, strategy});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SoccerQueries, PerfectOracleSweep, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = "Q";
      name += std::to_string(info.param.query_index);
      name += "_";
      name += cleaning::DeletionPolicyName(info.param.policy);
      name += "_";
      name += cleaning::SplitStrategyName(info.param.strategy);
      // gtest parameter names must be alphanumeric ("QOCO-" is not).
      std::string sanitized;
      for (char c : name) {
        sanitized += (std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
      }
      return sanitized;
    });

TEST(ImperfectPanelIntegrationTest, MajorityVotingConvergesAtLowErrorRate) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(3, *data.catalog);
  ASSERT_TRUE(q.ok());
  auto planted =
      workload::PlantErrors(*q, *data.ground_truth, 3, 3, /*seed=*/41);
  ASSERT_TRUE(planted.ok());

  size_t converged = 0;
  const uint64_t kRuns = 5;
  for (uint64_t run = 0; run < kRuns; ++run) {
    std::vector<std::unique_ptr<crowd::Oracle>> experts;
    std::vector<crowd::Oracle*> members;
    for (uint64_t i = 0; i < 5; ++i) {
      experts.push_back(std::make_unique<crowd::ImperfectOracle>(
          data.ground_truth.get(), 0.05, run * 100 + i));
      members.push_back(experts.back().get());
    }
    crowd::CrowdPanel panel(members, crowd::PanelConfig{3});
    relational::Database db = planted->db;
    CleanerConfig config;
    config.enumeration_nulls_to_stop = 2;
    QocoCleaner cleaner(*q, &db, &panel, config, common::Rng(run));
    auto stats = cleaner.Run();
    ASSERT_TRUE(stats.ok());
    if (Result(*q, db) == Result(*q, *data.ground_truth)) ++converged;
  }
  // With 5% per-question error and vote-of-3, a clear majority of runs
  // repairs the view exactly.
  EXPECT_GE(converged, 4u);
}

TEST(ImperfectPanelIntegrationTest, SessionsAreSeedReproducible) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(2, *data.catalog);
  ASSERT_TRUE(q.ok());
  auto planted =
      workload::PlantErrors(*q, *data.ground_truth, 2, 2, /*seed=*/9);
  ASSERT_TRUE(planted.ok());

  auto run_once = [&]() -> std::pair<size_t, size_t> {
    crowd::ImperfectOracle expert(data.ground_truth.get(), 0.1, 5);
    crowd::CrowdPanel panel({&expert}, crowd::PanelConfig{1});
    relational::Database db = planted->db;
    QocoCleaner cleaner(*q, &db, &panel, CleanerConfig{}, common::Rng(3));
    auto stats = cleaner.Run();
    EXPECT_TRUE(stats.ok());
    return {stats->edits.size(), panel.counts().member_answers};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace qoco
