// Reproduces Figure 3e: insertion on Q3 with a varying number of planted
// missing answers (2 / 5 / 10), comparing split strategies. Provenance
// stays best across noise levels; Min-Cut and Random trade places.

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
  for (size_t missing : {2, 5, 10}) {
    auto planted = workload::PlantErrors(*q, *data->ground_truth, 0, missing,
                                         /*seed=*/7);
    if (!planted.ok()) return 1;

    for (cleaning::SplitStrategy strategy :
         {cleaning::SplitStrategy::kProvenance, cleaning::SplitStrategy::kMinCut,
          cleaning::SplitStrategy::kRandom}) {
      exp::RunSpec spec;
      spec.query = &*q;
      spec.ground_truth = data->ground_truth.get();
      spec.dirty = &planted->db;
      spec.cleaner.do_deletion = false;
      spec.cleaner.insertion.strategy = strategy;
      auto r = exp::RunExperiment(spec);
      if (!r.ok()) {
        std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
        return 1;
      }
      exp::BarRow row;
      row.group =
          "Q3(" + std::to_string(planted->missing.size()) + " missing)";
      row.algorithm = cleaning::SplitStrategyName(strategy);
      row.lower = static_cast<double>(planted->missing.size());
      row.questions = r->filled_vars;
      row.avoided = r->insertion_upper - r->filled_vars;
      rows.push_back(row);
      if (r->final_result_distance != 0) {
        std::fprintf(stderr, "warning: %s/%s did not converge\n",
                     row.group.c_str(), row.algorithm.c_str());
      }
    }
  }
  exp::PrintFigure(
      "Figure 3e: Insertion - varying # of missing answers (Q3, perfect "
      "oracle); bar total = Naive no-split cost",
      "# missing", "# questions", rows);
  return 0;
}
