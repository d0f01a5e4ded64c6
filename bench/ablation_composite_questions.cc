// Ablation of the composite-question extension (Section 9 future work):
// deletion experiments on Q2/Q3 with composite batch sizes 1/2/4. Batching
// trades per-question precision for volume: the number of posted questions
// drops, while the number of individual tuple verdicts stays the same.

#include <cstdio>

#include "src/cleaning/remove_wrong_answer.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/exp/experiment.h"
#include "src/query/evaluator.h"
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

  std::printf(
      "== Ablation: composite questions - deletion question volume ==\n");
  std::printf("%-8s %-12s %14s %12s %12s\n", "query", "batch size",
              "questions", "edits", "converged");
  for (size_t qi : {2, 3}) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    if (!q.ok()) return 1;
    auto planted =
        workload::PlantErrors(*q, *data->ground_truth, 5, 0, /*seed=*/7);
    if (!planted.ok()) return 1;

    for (size_t batch : {1, 2, 4}) {
      double questions = 0;
      double edits = 0;
      bool all_converged = true;
      for (uint64_t seed : {11, 23, 37}) {
        crowd::SimulatedOracle oracle(data->ground_truth.get());
        crowd::PanelConfig panel_config;
        panel_config.composite_batch_size = batch;
        crowd::CrowdPanel panel({&oracle}, panel_config);
        relational::Database db = planted->db;
        common::Rng rng(seed);
        query::Evaluator eval(&db);
        for (const relational::Tuple& wrong : planted->wrong) {
          query::EvalResult evaluated = eval.Evaluate(*q);
          const query::AnswerInfo* info = evaluated.Find(wrong);
          if (info == nullptr) continue;  // An earlier removal took it out.
          auto removal = cleaning::RemoveWrongAnswerFromWitnesses(
              info->witnesses, &panel, cleaning::DeletionPolicy::kQoco, &rng);
          if (!removal.ok()) return 1;
          if (!cleaning::ApplyEdits(removal->edits, &db).ok()) return 1;
          edits += static_cast<double>(removal->edits.size());
        }
        questions += static_cast<double>(panel.counts().verify_fact);
        for (const relational::Tuple& wrong : planted->wrong) {
          if (eval.Evaluate(*q).ContainsAnswer(wrong)) all_converged = false;
        }
      }
      std::printf("Q%-7zu %-12zu %14.1f %12.1f %12s\n", qi, batch,
                  questions / 3, edits / 3, all_converged ? "yes" : "NO");
    }
  }
  return 0;
}
