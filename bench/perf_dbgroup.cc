// Timing microbenchmarks over the dbgroup workload (Section 7.1's real
// research-group database): witness-tracked evaluation of the four report
// queries and whole cleaning sessions against the planted dirty instance.
// Split out of perf_microbench and kept to boundary APIs only, so the same
// file builds unchanged against older and newer storage engines for
// before/after comparisons.

#include <benchmark/benchmark.h>

#include "src/cleaning/cleaner.h"
#include "src/common/rng.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"
#include "src/workload/dbgroup.h"

namespace {

using namespace qoco;  // NOLINT(build/namespaces): benchmark driver.

const workload::DbGroupData& DbGroup() {
  static workload::DbGroupData data =
      std::move(workload::MakeDbGroupData(workload::DbGroupParams{})).value();
  return data;
}

void BM_EvaluateDbGroupQuery(benchmark::State& state) {
  const workload::DbGroupData& data = DbGroup();
  const query::CQuery& q =
      data.report_queries[static_cast<size_t>(state.range(0))];
  query::Evaluator evaluator(data.dirty.get());
  size_t answers = 0;
  for (auto _ : state) {
    query::EvalResult result = evaluator.Evaluate(q);
    answers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_EvaluateDbGroupQuery)->DenseRange(0, 3);

void BM_DbGroupCleaningEndToEnd(benchmark::State& state) {
  const workload::DbGroupData& data = DbGroup();
  const query::CQuery& q =
      data.report_queries[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    relational::Database db = *data.dirty;
    crowd::SimulatedOracle oracle(data.ground_truth.get());
    crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
    cleaning::CleanerConfig config;
    cleaning::QocoCleaner cleaner(q, &db, &panel, config, common::Rng(3));
    auto stats = cleaner.Run();
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_DbGroupCleaningEndToEnd)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
