// Reproduces Figure 3c: the mixed experiments (both wrong and missing
// answers) across queries Q1/Q2/Q3, comparing the full QOCO configuration
// (Algorithm 1 deletion + Provenance-split insertion inside Algorithm 3)
// against QOCO- and Random deletion baselines.
//
// Bars: black = answers verified + missing answers (the floor any
// algorithm pays), red = witness verification questions + filled
// variables, white = avoided vs the combined naive upper bounds.

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

  std::vector<exp::BarRow> rows;
  for (size_t qi : {1, 2, 3}) {
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
      auto r = exp::RunExperiment(spec);
      if (!r.ok()) {
        std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
        return 1;
      }
      exp::BarRow row;
      row.group = "Q";
      row.group += std::to_string(qi);
      row.algorithm = cleaning::DeletionPolicyName(policy);
      row.lower = r->verify_answer +
                  static_cast<double>(planted->missing.size());
      row.questions = r->verify_fact + r->filled_vars;
      row.avoided =
          (r->deletion_upper + r->insertion_upper) - row.questions;
      rows.push_back(row);
      if (r->final_result_distance != 0) {
        std::fprintf(stderr, "warning: Q%zu/%s did not converge\n", qi,
                     row.algorithm.c_str());
      }
    }
  }
  exp::PrintFigure(
      "Figure 3c: Mixed - multiple queries (5 wrong + 5 missing answers, "
      "perfect oracle)",
      "# res+missing", "# questions", rows);
  return 0;
}
