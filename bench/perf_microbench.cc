// Timing microbenchmarks (google-benchmark) backing the paper's claim that
// next-question selection takes at most one or two seconds and is
// negligible against human latency (Section 7). Covers query evaluation
// with witness tracking, satisfiability probes, hitting-set machinery
// (greedy vs exact), the min-cut and WhyNot? split substrates, and the
// end-to-end per-answer cleaning routines.

#include <benchmark/benchmark.h>

#include "src/cleaning/add_missing_answer.h"
#include "src/cleaning/remove_wrong_answer.h"
#include "src/cleaning/split_strategy.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/graph/graph.h"
#include "src/hittingset/hitting_set.h"
#include "src/provenance/whynot.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"
#include "src/query/parser.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace {

using namespace qoco;  // NOLINT(build/namespaces): benchmark driver.

const workload::SoccerData& Soccer() {
  static workload::SoccerData data =
      std::move(workload::MakeSoccerData(workload::SoccerParams{})).value();
  return data;
}

void BM_EvaluateSoccerQuery(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(static_cast<size_t>(state.range(0)),
                                 *data.catalog);
  query::Evaluator evaluator(data.ground_truth.get());
  size_t answers = 0;
  for (auto _ : state) {
    query::EvalResult result = evaluator.Evaluate(*q);
    answers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_EvaluateSoccerQuery)->DenseRange(1, 5);

void BM_SatisfiabilityProbe(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(3, *data.catalog);
  query::Evaluator evaluator(data.ground_truth.get());
  query::Assignment empty(q->num_vars(), &data.ground_truth->dict());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.IsSatisfiable(*q, empty));
  }
}
BENCHMARK(BM_SatisfiabilityProbe);

// Interning-layer primitives: hashing and comparing in id space are
// integer ops over the dictionary-encoded storage.
void BM_ValueHash(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  std::vector<relational::ValueId> ids;
  for (const relational::Value& v :
       data.ground_truth->relation(0).ColumnDomain(0)) {
    ids.push_back(*data.ground_truth->dict().Find(v));
  }
  for (auto _ : state) {
    size_t h = 0;
    for (relational::ValueId id : ids) h ^= relational::HashValueId(id);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_ValueHash);

void BM_TupleCompare(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  const std::vector<relational::ITuple>& rows =
      data.ground_truth->relation(0).rows();
  for (auto _ : state) {
    size_t equal = 0;
    for (size_t i = 1; i < rows.size(); ++i) {
      equal += rows[i - 1] == rows[i];
    }
    benchmark::DoNotOptimize(equal);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size() - 1));
}
BENCHMARK(BM_TupleCompare);

void BM_InternProbe(benchmark::State& state) {
  // Heterogeneous FindString: the hot boundary probe (parser literals,
  // oracle answers) — no std::string, no Value construction on a hit.
  const workload::SoccerData& data = Soccer();
  std::vector<relational::Value> values =
      data.ground_truth->relation(0).ColumnDomain(0);
  std::vector<std::string> strings;
  for (const relational::Value& v : values) {
    if (v.is_string()) strings.push_back(v.AsString());
  }
  const relational::ValueDictionary& dict = data.ground_truth->dict();
  for (auto _ : state) {
    size_t hits = 0;
    for (const std::string& s : strings) {
      hits += dict.FindString(std::string_view(s)).has_value();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(strings.size()));
}
BENCHMARK(BM_InternProbe);

void BM_ParseQuery(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  std::string text = workload::SoccerQueryTexts()[1];
  for (auto _ : state) {
    auto q = query::ParseQuery(text, *data.catalog);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseQuery);

hittingset::Instance RandomInstance(size_t elements, size_t sets,
                                    size_t set_size, uint64_t seed) {
  common::Rng rng(seed);
  hittingset::Instance instance;
  instance.num_elements = elements;
  for (size_t s = 0; s < sets; ++s) {
    std::vector<int> set;
    for (size_t i = 0; i < set_size; ++i) {
      set.push_back(static_cast<int>(rng.Index(elements)));
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    instance.sets.push_back(std::move(set));
  }
  return instance;
}

void BM_GreedyHittingSet(benchmark::State& state) {
  hittingset::Instance instance =
      RandomInstance(static_cast<size_t>(state.range(0)),
                     static_cast<size_t>(state.range(0)) * 3, 4, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hittingset::GreedyHittingSet(instance));
  }
}
BENCHMARK(BM_GreedyHittingSet)->Arg(16)->Arg(64)->Arg(256);

void BM_ExactHittingSet(benchmark::State& state) {
  hittingset::Instance instance = RandomInstance(
      static_cast<size_t>(state.range(0)),
      static_cast<size_t>(state.range(0)) * 2, 3, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hittingset::ExactMinimumHittingSet(instance));
  }
}
BENCHMARK(BM_ExactHittingSet)->Arg(8)->Arg(12)->Arg(16);

void BM_StoerWagnerMinCut(benchmark::State& state) {
  common::Rng rng(3);
  size_t n = static_cast<size_t>(state.range(0));
  graph::WeightedGraph g(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Chance(0.3)) g.AddEdge(i, j, rng.Uniform(1, 5));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GlobalMinCut(g));
  }
}
BENCHMARK(BM_StoerWagnerMinCut)->Arg(8)->Arg(32)->Arg(64);

void BM_WhyNotAnalyze(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(5, *data.catalog);
  auto planted =
      workload::PlantErrors(*q, *data.ground_truth, 0, 3, /*seed=*/5);
  auto q_t = q->InstantiateAnswer(planted->missing.front());
  provenance::WhyNotAnalyzer analyzer(&planted->db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Analyze(*q_t));
  }
}
BENCHMARK(BM_WhyNotAnalyze);

// Per-edit view refresh: Algorithm 4 applies one edit per oracle round and
// then re-reads Q(D). The edit script is `range(0)` edits alternating
// erase / re-insert of query-relevant facts, leaving the database unchanged
// at the end of each iteration; IncrementalView applies each as a delta.
std::vector<relational::Fact> EditScript(const query::CQuery& q,
                                         const relational::Database& db,
                                         size_t count, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<relational::Fact> pool;
  for (const query::Atom& atom : q.atoms()) {
    const relational::Relation& rel = db.relation(atom.relation);
    for (const relational::ITuple& t : rel.rows()) {
      pool.push_back(relational::Fact{
          atom.relation, relational::MaterializeTuple(t, db.dict())});
    }
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::vector<relational::Fact> script;
  script.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    script.push_back(pool[rng.Index(pool.size())]);
  }
  return script;
}

void BM_IncrementalEditLoop(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(3, *data.catalog);
  size_t num_edits = static_cast<size_t>(state.range(0));
  relational::Database db = *data.ground_truth;
  std::vector<relational::Fact> script = EditScript(*q, db, num_edits / 2, 7);
  query::IncrementalView view(*q, &db);
  size_t answers = 0;
  for (auto _ : state) {
    for (const relational::Fact& f : script) {
      (void)db.Erase(f);
      view.OnErase(f);
      answers = view.size();
      benchmark::DoNotOptimize(answers);
      (void)db.Insert(f);
      view.OnInsert(f);
      answers = view.size();
      benchmark::DoNotOptimize(answers);
    }
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["edits"] = static_cast<double>(script.size() * 2);
}
BENCHMARK(BM_IncrementalEditLoop)->Arg(100)->Unit(benchmark::kMillisecond);

// End-to-end per-answer cleaning: the paper reports the time to select the
// next question never exceeded one or two seconds; these run a *whole*
// answer repair (all question selections for one answer) per iteration.
void BM_RemoveWrongAnswerEndToEnd(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(3, *data.catalog);
  auto planted =
      workload::PlantErrors(*q, *data.ground_truth, 3, 0, /*seed=*/5);
  crowd::SimulatedOracle oracle(data.ground_truth.get());
  common::Rng rng(1);
  for (auto _ : state) {
    crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
    query::EvalResult evaluated = query::Evaluator(&planted->db).Evaluate(*q);
    auto result = cleaning::RemoveWrongAnswerFromWitnesses(
        evaluated.Find(planted->wrong.front())->witnesses, &panel,
        cleaning::DeletionPolicy::kQoco, &rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RemoveWrongAnswerEndToEnd);

void BM_AddMissingAnswerEndToEnd(benchmark::State& state) {
  const workload::SoccerData& data = Soccer();
  auto q = workload::SoccerQuery(3, *data.catalog);
  auto planted =
      workload::PlantErrors(*q, *data.ground_truth, 0, 3, /*seed=*/5);
  crowd::SimulatedOracle oracle(data.ground_truth.get());
  common::Rng rng(1);
  for (auto _ : state) {
    relational::Database db = planted->db;
    crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
    auto result = cleaning::AddMissingAnswer(
        *q, &db, planted->missing.front(), &panel,
        cleaning::InsertionConfig{}, &rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AddMissingAnswerEndToEnd);

}  // namespace

BENCHMARK_MAIN();
