// Ablation of the alternative deletion heuristics the paper mentions in
// Section 4 as drop-in replacements for most-frequent-first: the
// responsibility heuristic (Meliou et al.) and least-trusted-first with a
// provenance-like trust signal, against QOCO, QOCO- and Random.

#include <cstdio>

#include "src/cleaning/trust.h"
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
  // A trust signal with realistic fidelity: correct facts ~0.8, false
  // facts ~0.2, +-0.25 deterministic jitter.
  cleaning::NoisyGroundTruthTrust trust(data->ground_truth.get(), 0.25, 3);

  std::vector<exp::BarRow> rows;
  for (size_t qi : {2, 3}) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    if (!q.ok()) return 1;
    auto planted = workload::PlantErrors(*q, *data->ground_truth,
                                         kWrongAnswers, 0, /*seed=*/7);
    if (!planted.ok()) return 1;

    for (cleaning::DeletionPolicy policy :
         {cleaning::DeletionPolicy::kQoco, cleaning::DeletionPolicy::kQocoMinus,
          cleaning::DeletionPolicy::kResponsibility,
          cleaning::DeletionPolicy::kLeastTrusted,
          cleaning::DeletionPolicy::kRandom}) {
      exp::RunSpec spec;
      spec.query = &*q;
      spec.ground_truth = data->ground_truth.get();
      spec.dirty = &planted->db;
      spec.cleaner.deletion_policy = policy;
      spec.cleaner.trust = &trust;
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
    }
  }
  exp::PrintFigure(
      "Ablation: deletion tuple-selection heuristics (5 wrong answers, "
      "perfect oracle; trust = noisy provenance signal)",
      "# results", "# questions", rows);
  return 0;
}
