// Reproduces Figure 3b: insertion experiments across queries Q3/Q4/Q5 of
// the Soccer workload, comparing the Provenance, Min-Cut and Random split
// strategies (plus Naive, whose cost is the bar total).
//
// Bars per (query, strategy): black = number of missing answers (each must
// at least be pointed out by the crowd), red = variables the crowd filled
// in COMPL(α, Q|t) tasks, white = filled variables avoided relative to the
// naive no-split upper bound (all variables of Q|t per answer). Expected
// shape: Provenance best; no consistent winner between Min-Cut and Random.

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

  std::vector<exp::BarRow> rows;
  for (size_t qi : {3, 4, 5}) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    if (!q.ok()) return 1;
    auto planted = workload::PlantErrors(*q, *data->ground_truth, 0,
                                         kMissingAnswers, /*seed=*/7);
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
      row.group = "Q";
      row.group += std::to_string(qi);
      row.algorithm = cleaning::SplitStrategyName(strategy);
      row.lower = static_cast<double>(planted->missing.size());
      row.questions = r->filled_vars;
      row.avoided = r->insertion_upper - r->filled_vars;
      rows.push_back(row);
      if (r->final_result_distance != 0) {
        std::fprintf(stderr, "warning: Q%zu/%s did not converge\n", qi,
                     row.algorithm.c_str());
      }
    }
  }
  exp::PrintFigure(
      "Figure 3b: Insertion - multiple queries (5 missing answers, perfect "
      "oracle); bar total = Naive no-split cost",
      "# missing", "# questions", rows);
  return 0;
}
