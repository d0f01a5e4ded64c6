#include "perfbench/workload.h"

#include <utility>

#include "perfbench/stats.h"
#include "src/common/rng.h"
#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/relational/csv.h"
#include "src/workload/noise.h"

namespace perfbench {

namespace {

// Why these three workloads (README.md has the long form):
//  - delete-scaled: false tuples only on a 2x Games relation, perfect crowd.
//    Witness-tracked evaluation, hitting-set selection and view erase
//    deltas do the work; the insertion path does none.
//  - insert-panel: missing tuples only, a three-member 10%-error panel.
//    The insertion path (splits, WhyNot frontier, COMPL tasks, insert
//    deltas, voting) does the work; no hitting set runs.
//  - service-shared: an open loop of sessions over SessionManager, groups
//    of five sharing questions through the QuestionBroker.
// The direct workloads clean 5 views on an odd number of instances, so a
// pass has 5 x odd sessions: p50 and p90 then fall in the middle of one
// (instance, view)'s block of samples rather than on the edge between two,
// where they would be the noisy max of one block and min of the next.
std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec del;
  del.name = "delete-scaled";
  del.soccer.group_games_per_tournament = 24;  // 2x Games
  del.skew = 1.0;
  del.cleanliness = 0.8;
  del.instances = 3;
  del.views = {1, 2, 3, 4, 5};
  del.panel_members = 1;
  del.rate_per_s = 10;  // the service probe of traced runs
  all.push_back(del);

  WorkloadSpec ins;
  ins.name = "insert-panel";
  ins.skew = 0.0;
  ins.cleanliness = 0.6;
  ins.instances = 7;
  ins.views = {1, 2, 3, 4, 5};
  ins.panel_members = 3;
  ins.error_rate = 0.1;
  ins.rate_per_s = 20;  // the service probe of traced runs
  all.push_back(ins);

  WorkloadSpec svc;
  svc.name = "service-shared";
  svc.skew = 0.5;
  svc.cleanliness = 0.8;
  svc.instances = 4;
  svc.views = {1, 2, 3, 4};
  svc.service = true;
  svc.group_size = 5;
  svc.rate_per_s = 10;
  all.push_back(svc);
  return all;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : AllWorkloads()) names.push_back(spec.name);
  return names;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  // SplitMix64 finalizer over a running mix of the inputs.
  uint64_t x = seed;
  for (uint64_t v : {a, b, c}) {
    x += 0x9E3779B97F4A7C15ull + v;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
  }
  return x;
}

qoco::common::Result<Inputs> MakeInputs(const WorkloadSpec& spec,
                                        uint64_t seed) {
  QOCO_ASSIGN_OR_RETURN(qoco::workload::SoccerData data,
                        qoco::workload::MakeSoccerData(spec.soccer));
  Inputs inputs;
  for (size_t r = 0; r < data.catalog->size(); ++r) {
    inputs.schemas.push_back(
        data.catalog->schema(static_cast<qoco::relational::RelationId>(r)));
  }
  inputs.truth_csv = qoco::relational::DatabaseToCsv(*data.ground_truth);
  for (size_t k = 0; k < spec.instances; ++k) {
    qoco::workload::NoiseParams noise;
    noise.skew = spec.skew;
    noise.cleanliness = spec.cleanliness;
    noise.seed = DeriveSeed(kDataSeed, 1, k);
    QOCO_ASSIGN_OR_RETURN(qoco::relational::Database dirty,
                          qoco::workload::MakeDirty(*data.ground_truth, noise));
    inputs.dirty_csv.push_back(qoco::relational::DatabaseToCsv(dirty));
  }
  inputs.order.resize(spec.instances * spec.views.size());
  for (size_t i = 0; i < inputs.order.size(); ++i) inputs.order[i] = i;
  qoco::common::Rng rng(DeriveSeed(seed, 6));
  rng.Shuffle(&inputs.order);
  const std::vector<std::string> texts = qoco::workload::SoccerQueryTexts();
  for (size_t v : spec.views) {
    if (v < 1 || v > texts.size()) {
      return qoco::common::Status::InvalidArgument("no such soccer query");
    }
    inputs.view_texts.push_back(texts[v - 1]);
  }
  return inputs;
}

qoco::common::Result<Loaded> LoadInputs(const Inputs& inputs) {
  Loaded loaded;
  loaded.catalog = std::make_unique<qoco::relational::Catalog>();
  for (const qoco::relational::RelationSchema& schema : inputs.schemas) {
    QOCO_RETURN_NOT_OK(loaded.catalog->AddRelation(schema).status());
  }
  const int64_t start = NowNs();
  loaded.truth =
      std::make_unique<qoco::relational::Database>(loaded.catalog.get());
  QOCO_RETURN_NOT_OK(
      qoco::relational::LoadDatabaseFromCsv(inputs.truth_csv,
                                            loaded.truth.get()));
  for (const std::string& csv : inputs.dirty_csv) {
    qoco::relational::Database db(loaded.catalog.get());
    QOCO_RETURN_NOT_OK(qoco::relational::LoadDatabaseFromCsv(csv, &db));
    loaded.dirty.push_back(std::move(db));
  }
  loaded.load_ms = NsToMs(NowNs() - start);
  loaded.facts = loaded.truth->TotalFacts();
  for (const qoco::relational::Database& db : loaded.dirty) {
    loaded.facts += db.TotalFacts();
  }
  loaded.view_texts = inputs.view_texts;
  loaded.order = inputs.order;
  for (const std::string& text : inputs.view_texts) {
    QOCO_ASSIGN_OR_RETURN(qoco::query::CQuery q,
                          qoco::query::ParseQuery(text, *loaded.catalog));
    loaded.views.push_back(std::move(q));
  }
  return loaded;
}

std::vector<std::vector<qoco::relational::Tuple>> TruthAnswers(
    const Loaded& loaded) {
  qoco::query::Evaluator evaluator(loaded.truth.get());
  std::vector<std::vector<qoco::relational::Tuple>> answers;
  for (const qoco::query::CQuery& q : loaded.views) {
    answers.push_back(evaluator.Evaluate(q).AnswerTuples());
  }
  return answers;
}

}  // namespace perfbench
