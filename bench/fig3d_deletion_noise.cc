// Reproduces Figure 3d: deletion on Q3 with a varying number of planted
// wrong answers (2 / 5 / 10). The gap between QOCO and Random widens as
// the noise level grows.

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

  std::vector<exp::BarRow> rows;
  for (size_t wrong : {2, 5, 10}) {
    auto planted =
        workload::PlantErrors(*q, *data->ground_truth, wrong, 0, /*seed=*/7);
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
      row.group = "Q3(" + std::to_string(planted->wrong.size()) + " wrong)";
      row.algorithm = cleaning::DeletionPolicyName(policy);
      row.lower = r->verify_answer;
      row.questions = r->verify_fact;
      row.avoided = r->deletion_upper - r->verify_fact;
      rows.push_back(row);
      if (r->final_result_distance != 0) {
        std::fprintf(stderr, "warning: %s/%s did not converge\n",
                     row.group.c_str(), row.algorithm.c_str());
      }
    }
  }
  exp::PrintFigure(
      "Figure 3d: Deletion - varying # of wrong answers (Q3, perfect "
      "oracle)",
      "# results", "# questions", rows);
  return 0;
}
