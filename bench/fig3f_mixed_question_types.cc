// Reproduces Figure 3f: the Mixed algorithm on Q3 with (2,2) / (5,5) /
// (10,10) planted (missing, wrong) answers, broken down by the type of
// crowd interaction: verify answers (TRUE(Q, t)?), verify tuples
// (TRUE(R(ā))?), and fill missing (variables supplied through COMPL
// tasks). All three grow with the error level.

#include <cstdio>

#include "src/exp/experiment.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace {

using namespace qoco;  // NOLINT(build/namespaces): experiment driver.

}  // namespace

int main() {
  auto data = workload::MakeSoccerData(workload::SoccerParams{});
  if (!data.ok()) {
    std::fprintf(stderr, "workload: %s\n", data.status().ToString().c_str());
    return 1;
  }
  auto q = workload::SoccerQuery(3, *data->catalog);
  if (!q.ok()) return 1;

  std::vector<exp::TypedRow> rows;
  for (size_t errors : {2, 5, 10}) {
    auto planted = workload::PlantErrors(*q, *data->ground_truth, errors,
                                         errors, /*seed=*/7);
    if (!planted.ok()) return 1;

    exp::RunSpec spec;
    spec.query = &*q;
    spec.ground_truth = data->ground_truth.get();
    spec.dirty = &planted->db;
    spec.cleaner.deletion_policy = cleaning::DeletionPolicy::kQoco;
    spec.cleaner.insertion.strategy = cleaning::SplitStrategy::kProvenance;
    auto r = exp::RunExperiment(spec);
    if (!r.ok()) {
      std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
      return 1;
    }
    exp::TypedRow row;
    row.group = "QOCO(" + std::to_string(planted->missing.size()) +
                " missing, " + std::to_string(planted->wrong.size()) +
                " wrong)";
    row.algorithm = "Mixed";
    row.verify_answers = r->verify_answer;
    row.verify_tuples = r->verify_fact;
    row.fill_missing = r->filled_vars + r->missing_answer_vars;
    rows.push_back(row);
    if (r->final_result_distance != 0) {
      std::fprintf(stderr, "warning: %s/%s did not converge\n",
                   row.group.c_str(), row.algorithm.c_str());
    }
  }
  exp::PrintTypedFigure(
      "Figure 3f: Mixed - types of questions (Q3, perfect oracle)", rows);
  return 0;
}
