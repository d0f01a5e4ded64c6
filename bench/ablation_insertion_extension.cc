// Ablation of the data-directed assignment extension in Algorithm 2: the
// raw split strategies (extension off — the paper's regime, where
// Provenance wins and Min-Cut vs Random has no clear winner) against the
// extended variant (extension on — Section 5's "direct the crowd with
// facts existing in D" carried to its conclusion, which narrows the gap
// between strategies by shrinking every completion task).

#include <cstdio>

#include "src/exp/experiment.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace {

using namespace qoco;  // NOLINT(build/namespaces): experiment driver.

constexpr size_t kMissingAnswers = 5;

}  // namespace

int main() {
  auto data = workload::MakeSoccerData(workload::SoccerParams{});
  if (!data.ok()) {
    std::fprintf(stderr, "workload: %s\n", data.status().ToString().c_str());
    return 1;
  }

  for (bool extension : {false, true}) {
    std::vector<exp::BarRow> rows;
    for (size_t qi : {3, 4, 5}) {
      auto q = workload::SoccerQuery(qi, *data->catalog);
      if (!q.ok()) return 1;
      auto planted = workload::PlantErrors(*q, *data->ground_truth, 0,
                                           kMissingAnswers, /*seed=*/7);
      if (!planted.ok()) return 1;
      for (cleaning::SplitStrategy strategy :
           {cleaning::SplitStrategy::kProvenance,
            cleaning::SplitStrategy::kMinCut,
            cleaning::SplitStrategy::kRandom}) {
        exp::RunSpec spec;
        spec.query = &*q;
        spec.ground_truth = data->ground_truth.get();
        spec.dirty = &planted->db;
        spec.cleaner.do_deletion = false;
        spec.cleaner.insertion.strategy = strategy;
        spec.cleaner.insertion.data_directed_extension = extension;
        auto r = exp::RunExperiment(spec);
        if (!r.ok()) {
          std::fprintf(stderr, "run: %s\n", r.status().ToString().c_str());
          return 1;
        }
        exp::BarRow row;
        row.group = "Q";
        row.group += std::to_string(qi);
        row.algorithm = cleaning::SplitStrategyName(strategy);
        row.lower = static_cast<double>(planted->missing.size());
        row.questions = r->filled_vars;
        row.avoided = r->insertion_upper - r->filled_vars;
        rows.push_back(row);
      }
    }
    exp::PrintFigure(
        std::string("Ablation: insertion with data-directed extension ") +
            (extension ? "ON" : "OFF (paper's raw split strategies)"),
        "# missing", "# filled vars", rows);
  }
  return 0;
}
