// Reproduces Figure 3a: deletion experiments across queries Q1/Q2/Q3 of
// the Soccer workload, comparing QOCO, QOCO- and Random.
//
// Bars per (query, algorithm): black = answers that must be verified
// (TRUE(Q, t)? questions, a cost every algorithm pays), red = witness-tuple
// verification questions (TRUE(R(ā))?), white = questions avoided relative
// to the naive upper bound (every distinct tuple across the wrong answers'
// witnesses). Expected shape: QOCO <= QOCO- << Random, gaps growing with
// query size.

#include <cstdio>

#include "src/exp/experiment.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace {

using namespace qoco;  // NOLINT(build/namespaces): experiment driver.

constexpr size_t kWrongAnswers = 5;

}  // namespace

int main() {
  auto data = workload::MakeSoccerData(workload::SoccerParams{});
  if (!data.ok()) {
    std::fprintf(stderr, "workload: %s\n", data.status().ToString().c_str());
    return 1;
  }

  std::vector<exp::BarRow> rows;
  for (size_t qi : {1, 2, 3}) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    if (!q.ok()) return 1;
    auto planted = workload::PlantErrors(*q, *data->ground_truth,
                                         kWrongAnswers, 0, /*seed=*/7);
    if (!planted.ok()) return 1;

    for (cleaning::DeletionPolicy policy :
         {cleaning::DeletionPolicy::kQoco, cleaning::DeletionPolicy::kQocoMinus,
          cleaning::DeletionPolicy::kRandom}) {
      exp::RunSpec spec;
      spec.query = &*q;
      spec.ground_truth = data->ground_truth.get();
      spec.dirty = &planted->db;
      spec.cleaner.deletion_policy = policy;
      spec.cleaner.do_insertion = false;
      auto r = exp::RunExperiment(spec);
      if (!r.ok()) {
        std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
        return 1;
      }
      exp::BarRow row;
      row.group = "Q";
      row.group += std::to_string(qi);
      row.algorithm = cleaning::DeletionPolicyName(policy);
      row.lower = r->verify_answer;
      row.questions = r->verify_fact;
      row.avoided = r->deletion_upper - r->verify_fact;
      rows.push_back(row);
      if (r->final_result_distance != 0) {
        std::fprintf(stderr, "warning: Q%zu/%s did not converge\n", qi,
                     row.algorithm.c_str());
      }
    }
  }
  exp::PrintFigure(
      "Figure 3a: Deletion - multiple queries (5 wrong answers, perfect "
      "oracle)",
      "# results", "# questions", rows);
  return 0;
}
