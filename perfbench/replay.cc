#include "perfbench/replay.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "perfbench/crowd_meter.h"
#include "src/cleaning/add_missing_answer.h"
#include "src/cleaning/remove_wrong_answer.h"
#include "src/common/rng.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/hittingset/hitting_set.h"
#include "src/provenance/whynot.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"
#include "src/query/parser.h"

namespace perfbench {

namespace {

using qoco::relational::Tuple;

// Enough samples for each reported percentile (see MinSamplesFor), and a
// cap on replay rounds for workloads with few errors to repair.
constexpr size_t kParseBatch = 50;
constexpr size_t kMaxRounds = 20;

/// Times `fn` as one span named `name`; returns its wall time in ns.
template <typename Fn>
int64_t Timed(TraceRecorder* trace, const char* name, Fn&& fn) {
  const int64_t span = trace->Open(name, -1, 0);
  const int64_t start = NowNs();
  fn();
  const int64_t ns = NowNs() - start;
  trace->Close(span);
  return ns;
}

/// The hitting-set instance of one answer: its witnesses as sets of
/// first-seen fact numbers (the numbering Algorithm 1 uses).
qoco::hittingset::Instance WitnessInstance(
    const qoco::provenance::WitnessSet& witnesses) {
  qoco::hittingset::Instance instance;
  std::unordered_map<qoco::relational::IFact, int, qoco::relational::IFactHash>
      ids;
  for (const qoco::provenance::Witness& w : witnesses) {
    std::vector<int> set;
    for (const qoco::relational::IFact& f : w.facts()) {
      auto [it, inserted] = ids.emplace(f, static_cast<int>(ids.size()));
      set.push_back(it->second);
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    instance.sets.push_back(std::move(set));
  }
  instance.num_elements = ids.size();
  return instance;
}

std::vector<Tuple> Minus(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  std::vector<Tuple> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace

void ReplayLayers(const ReplayInputs& in, TraceRecorder* trace,
                  std::vector<Metric>* out, std::vector<std::string>* notes) {
  const Loaded& loaded = *in.loaded;
  const size_t num_instances = loaded.dirty.size();
  const size_t num_views = loaded.views.size();

  // Parsing: microseconds per call, so timed in batches.
  std::vector<double> parse_ms;
  while (parse_ms.size() < MinSamplesFor(50)) {
    for (const std::string& text : loaded.view_texts) {
      const int64_t ns = Timed(trace, "query.parse", [&] {
        for (size_t i = 0; i < kParseBatch; ++i) {
          if (!qoco::query::ParseQuery(text, *loaded.catalog).ok()) {
            notes->push_back("query.parse: a view failed to parse");
          }
        }
      });
      parse_ms.push_back(NsToMs(ns) / kParseBatch);
    }
  }

  // Full evaluation of every view over every instance's starting database.
  std::vector<double> eval_ms;
  size_t assignments = 0;
  size_t witnesses = 0;
  std::vector<std::vector<qoco::query::EvalResult>> results(num_instances);
  for (size_t round = 0; round == 0 || eval_ms.size() < MinSamplesFor(90);
       ++round) {
    for (size_t k = 0; k < num_instances; ++k) {
      for (size_t v = 0; v < num_views; ++v) {
        qoco::query::Evaluator evaluator(&loaded.dirty[k]);
        qoco::query::EvalResult result;
        eval_ms.push_back(NsToMs(Timed(trace, "query.evaluate", [&] {
          result = evaluator.Evaluate(loaded.views[v]);
        })));
        if (round > 0) continue;
        for (const qoco::query::AnswerInfo& info : result.answers()) {
          assignments += info.assignments.size();
          witnesses += info.witnesses.size();
        }
        results[k].push_back(std::move(result));
      }
    }
  }

  // Hitting-set selection over every answer's witness sets.
  int64_t select_ns = 0;
  size_t sets = 0;
  for (size_t k = 0; k < num_instances; ++k) {
    for (size_t v = 0; v < num_views; ++v) {
      for (const qoco::query::AnswerInfo& info : results[k][v].answers()) {
        const qoco::hittingset::Instance instance =
            WitnessInstance(info.witnesses);
        sets += instance.sets.size();
        select_ns += Timed(trace, "hittingset.select", [&] {
          auto unique = qoco::hittingset::UniqueMinimalHittingSet(instance);
          int frequent = qoco::hittingset::MostFrequentElement(instance.sets);
          if (!unique.has_value() && frequent < 0 && !instance.sets.empty()) {
            notes->push_back("hittingset: no element selected");
          }
        });
      }
    }
  }

  // View maintenance: each session's edits forward, then undone, so both
  // delta rules run on every workload.
  int64_t erase_ns = 0;
  int64_t insert_ns = 0;
  size_t deltas = 0;
  for (size_t k = 0; k < num_instances; ++k) {
    for (size_t v = 0; v < num_views; ++v) {
      qoco::relational::Database db = loaded.dirty[k];
      qoco::query::IncrementalView view(loaded.views[v], &db);
      const qoco::cleaning::EditList& edits = (*in.edits)[k][v];
      auto apply = [&](const qoco::relational::Fact& fact, bool insert) {
        if (insert) {
          (void)db.Insert(fact);
          insert_ns += Timed(trace, "query.view_insert",
                             [&] { view.OnInsert(fact); });
        } else {
          (void)db.Erase(fact);
          erase_ns += Timed(trace, "query.view_erase",
                            [&] { view.OnErase(fact); });
        }
      };
      for (const qoco::cleaning::Edit& e : edits) {
        apply(e.fact, e.kind == qoco::cleaning::Edit::Kind::kInsert);
      }
      for (auto it = edits.rbegin(); it != edits.rend(); ++it) {
        apply(it->fact, it->kind != qoco::cleaning::Edit::Kind::kInsert);
      }
      deltas += view.stats().insert_deltas + view.stats().erase_deltas;
    }
  }

  // Repairs, each with a fresh perfect panel, crowd time excluded: the
  // removal a session runs per wrong answer (Algorithm 1 over the witnesses
  // its view already holds) and AddMissingAnswer per missing one.
  qoco::crowd::SimulatedOracle truth_oracle(loaded.truth.get());
  std::vector<double> repair_ms;
  size_t repair_edits = 0;
  std::vector<std::vector<std::vector<Tuple>>> wrong(num_instances);
  std::vector<std::vector<std::vector<Tuple>>> missing(num_instances);
  for (size_t k = 0; k < num_instances; ++k) {
    for (size_t v = 0; v < num_views; ++v) {
      const std::vector<Tuple> start = results[k][v].AnswerTuples();
      wrong[k].push_back(Minus(start, (*in.truth_answers)[v]));
      missing[k].push_back(Minus((*in.truth_answers)[v], start));
    }
  }
  for (size_t round = 0; round < kMaxRounds; ++round) {
    for (size_t k = 0; k < num_instances; ++k) {
      for (size_t v = 0; v < num_views; ++v) {
        const qoco::query::CQuery& q = loaded.views[v];
        // Every wrong answer is an answer of results[k][v], so Find holds.
        auto repair = [&](const Tuple& t, bool insert) {
          CrowdMeter meter(trace);
          TimedOracle oracle(&truth_oracle, &meter);
          qoco::crowd::CrowdPanel panel({&oracle}, qoco::crowd::PanelConfig{});
          qoco::common::Rng rng(DeriveSeed(in.seed, 3, k * 64 + v));
          // Insertion applies its edits, so it works on a copy.
          std::optional<qoco::relational::Database> copy;
          if (insert) copy.emplace(loaded.dirty[k]);
          const int64_t span = trace->Open(
              insert ? "cleaning.insert" : "cleaning.remove", -1, 0);
          meter.BeginSession(span, 0);
          const int64_t start = NowNs();
          size_t edits = 0;
          bool ok = false;
          if (insert) {
            auto r = qoco::cleaning::AddMissingAnswer(
                q, &*copy, t, &panel, qoco::cleaning::InsertionConfig{}, &rng);
            ok = r.ok();
            if (ok) edits = r->edits.size();
          } else {
            auto r = qoco::cleaning::RemoveWrongAnswerFromWitnesses(
                results[k][v].Find(t)->witnesses, &panel,
                qoco::cleaning::DeletionPolicy::kQoco, &rng);
            ok = r.ok();
            if (ok) edits = r->edits.size();
          }
          const int64_t end = NowNs();
          trace->Close(span);
          if (!ok) notes->push_back("cleaning: a replayed repair failed");
          repair_ms.push_back(NsToMs(end - start - meter.session_wait_ns()));
          if (round == 0) repair_edits += edits;
        };
        for (const Tuple& t : wrong[k][v]) repair(t, false);
        for (const Tuple& t : missing[k][v]) repair(t, true);
      }
    }
    if (repair_ms.empty() || repair_ms.size() >= MinSamplesFor(90)) break;
  }

  // WhyNot: each missing answer over the starting database, and each wrong
  // answer over the database its session left (where it is gone).
  int64_t whynot_ns = 0;
  size_t whynot_calls = 0;
  for (size_t k = 0; k < num_instances; ++k) {
    for (size_t v = 0; v < num_views; ++v) {
      qoco::relational::Database cleaned = loaded.dirty[k];
      if (!qoco::cleaning::ApplyEdits((*in.edits)[k][v], &cleaned).ok()) {
        notes->push_back("provenance: session edits failed to apply");
      }
      auto analyze = [&](const qoco::relational::Database& db, const Tuple& t) {
        auto q_t = loaded.views[v].InstantiateAnswer(t);
        if (!q_t.ok()) return;
        qoco::provenance::WhyNotAnalyzer analyzer(&db);
        whynot_ns += Timed(trace, "provenance.whynot",
                           [&] { (void)analyzer.Analyze(*q_t); });
        whynot_calls++;
      };
      for (const Tuple& t : missing[k][v]) analyze(loaded.dirty[k], t);
      for (const Tuple& t : wrong[k][v]) analyze(cleaned, t);
    }
  }

  auto add = [&](std::string name, double value, std::string unit) {
    out->push_back({std::move(name), value, std::move(unit)});
  };
  add("query.parse_ms.p50",
      PercentileOrNote(parse_ms, 50, "query.parse_ms.p50", notes), "ms");
  add("query.eval_ms.p50",
      PercentileOrNote(eval_ms, 50, "query.eval_ms.p50", notes), "ms");
  add("query.eval_ms.p90",
      PercentileOrNote(eval_ms, 90, "query.eval_ms.p90", notes), "ms");
  add("query.assignments", static_cast<double>(assignments), "count");
  add("query.witnesses", static_cast<double>(witnesses), "count");
  add("query.view_erase_ms", NsToMs(erase_ns), "ms");
  add("query.view_insert_ms", NsToMs(insert_ns), "ms");
  add("query.view_deltas", static_cast<double>(deltas), "count");
  add("hittingset.select_ms", NsToMs(select_ns), "ms");
  add("hittingset.sets", static_cast<double>(sets), "count");
  add("cleaning.repair_ms.p50",
      PercentileOrNote(repair_ms, 50, "cleaning.repair_ms.p50", notes), "ms");
  add("cleaning.repair_ms.p90",
      PercentileOrNote(repair_ms, 90, "cleaning.repair_ms.p90", notes), "ms");
  add("cleaning.edits", static_cast<double>(repair_edits), "count");
  add("provenance.whynot_ms",
      whynot_calls == 0 ? 0 : NsToMs(whynot_ns) / whynot_calls, "ms");
}

}  // namespace perfbench
