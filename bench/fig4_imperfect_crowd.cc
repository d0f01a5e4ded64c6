// Reproduces Figure 4: cleaning with a real (imperfect) expert crowd on Q2
// and Q3 — five experts with a 10% per-question error rate, every closed
// question decided by majority among a sample of 3 (a decision is reached
// as soon as two agree), and answers to open questions re-verified with
// closed questions (Section 6.2).
//
// The reported metric is individual member answers, broken down by
// question type as in the paper. A second table sweeps the expert error
// rate to show the aggregation cost growing with member unreliability.

#include <cstdio>

#include "src/exp/experiment.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace {

using namespace qoco;  // NOLINT(build/namespaces): experiment driver.

constexpr size_t kWrongAnswers = 5;
constexpr size_t kMissingAnswers = 5;

}  // namespace

int main() {
  auto data = workload::MakeSoccerData(workload::SoccerParams{});
  if (!data.ok()) {
    std::fprintf(stderr, "workload: %s\n", data.status().ToString().c_str());
    return 1;
  }

  std::vector<exp::TypedRow> rows;
  for (size_t qi : {2, 3}) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    if (!q.ok()) return 1;
    auto planted = workload::PlantErrors(*q, *data->ground_truth,
                                         kWrongAnswers, kMissingAnswers,
                                         /*seed=*/7);
    if (!planted.ok()) return 1;

    for (cleaning::DeletionPolicy policy :
         {cleaning::DeletionPolicy::kQoco, cleaning::DeletionPolicy::kQocoMinus,
          cleaning::DeletionPolicy::kRandom}) {
      exp::RunSpec spec;
      spec.query = &*q;
      spec.ground_truth = data->ground_truth.get();
      spec.dirty = &planted->db;
      spec.cleaner.deletion_policy = policy;
      spec.cleaner.insertion.strategy = cleaning::SplitStrategy::kProvenance;
      spec.cleaner.enumeration_nulls_to_stop = 2;
      spec.num_experts = 5;
      spec.sample_size = 3;
      spec.expert_error_rate = 0.1;
      spec.seeds = {11, 23, 37};
      auto r = exp::RunExperiment(spec);
      if (!r.ok()) {
        std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
        return 1;
      }
      exp::TypedRow row;
      row.group = "Q";
      row.group += std::to_string(qi);
      row.algorithm = cleaning::DeletionPolicyName(policy);
      // Figure 4 counts individual member answers; apportion them by the
      // share each question type contributed.
      double aggregated = r->verify_answer + r->verify_fact +
                          r->filled_vars + r->missing_answer_vars;
      double scale = aggregated > 0 ? r->member_answers / aggregated : 0;
      row.verify_answers = r->verify_answer * scale;
      row.verify_tuples = r->verify_fact * scale;
      row.fill_missing = (r->filled_vars + r->missing_answer_vars) * scale;
      rows.push_back(row);
    }
  }
  exp::PrintTypedFigure(
      "Figure 4: Real (imperfect) expert crowd - member answers by type "
      "(5 wrong + 5 missing, 5 experts, error rate 0.1, vote of 3)",
      rows);

  // Ablation: majority-vote cost vs expert error rate (Q3, QOCO).
  auto q3 = workload::SoccerQuery(3, *data->catalog);
  if (!q3.ok()) return 1;
  auto planted = workload::PlantErrors(*q3, *data->ground_truth,
                                       kWrongAnswers, kMissingAnswers,
                                       /*seed=*/7);
  if (!planted.ok()) return 1;
  std::printf(
      "\n== Ablation: expert error rate vs crowd cost and residual error "
      "(Q3, QOCO) ==\n");
  std::printf("%-12s %16s %16s %20s\n", "error rate", "member answers",
              "result residual", "db distance");
  for (double error_rate : {0.0, 0.05, 0.1, 0.2}) {
    exp::RunSpec spec;
    spec.query = &*q3;
    spec.ground_truth = data->ground_truth.get();
    spec.dirty = &planted->db;
    spec.cleaner.insertion.strategy = cleaning::SplitStrategy::kProvenance;
    spec.cleaner.enumeration_nulls_to_stop = 2;
    spec.num_experts = 5;
    spec.sample_size = 3;
    spec.expert_error_rate = error_rate;
    spec.seeds = {11, 23, 37};
    auto r = exp::RunExperiment(spec);
    if (!r.ok()) return 1;
    std::printf("%-12.2f %16.1f %16.1f %8.1f -> %5.1f\n", error_rate,
                r->member_answers, r->final_result_distance,
                r->initial_db_distance, r->final_db_distance);
  }
  return 0;
}
