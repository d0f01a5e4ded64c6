// Golden-transcript pinning for the storage engine: full cleaning sessions
// (every crowd question in the order asked, every edit, the final answers
// and database contents) and witness-tracked evaluations are rendered to
// text and compared byte-for-byte against checked-in goldens captured from
// the pre-interning engine (the "-t1" in their names records that they
// were captured single-threaded). Any representation change that alters a
// transcript — answer order, witness order, question order, edit order —
// fails here.
//
// Regenerate (only when a change is *supposed* to alter transcripts) with:
//   QOCO_REGEN_GOLDENS=1 ./tests/transcript_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cleaning/cleaner.h"
#include "src/cleaning/edit.h"
#include "src/common/rng.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/oracle.h"
#include "src/crowd/simulated_oracle.h"
#include "src/qoco/session.h"
#include "src/query/aggregate.h"
#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/workload/dbgroup.h"
#include "src/workload/figure_one.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

#ifndef QOCO_SOURCE_DIR
#define QOCO_SOURCE_DIR "."
#endif

namespace qoco {
namespace {

using cleaning::CleanerConfig;
using cleaning::QocoCleaner;
using relational::Database;
using relational::Fact;
using relational::Tuple;
using relational::TupleToString;

/// Decorates a crowd member with an append-only question log so the exact
/// question sequence — not just the aggregate counts — is part of the
/// pinned transcript.
class RecordingOracle : public crowd::Oracle {
 public:
  RecordingOracle(crowd::Oracle* inner, const Database* db, std::string* log)
      : inner_(inner), db_(db), log_(log) {}

  bool IsFactTrue(const Fact& fact) override {
    bool r = inner_->IsFactTrue(fact);
    *log_ += "fact? " + db_->FactToString(fact) + " -> " + YesNo(r) + "\n";
    return r;
  }

  bool IsAnswerTrue(const query::CQuery& q, const Tuple& t) override {
    bool r = inner_->IsAnswerTrue(q, t);
    *log_ += "answer? " + TupleToString(t) + " -> " + YesNo(r) + "\n";
    return r;
  }

  bool IsAnswerTrue(const query::UnionQuery& q, const Tuple& t) override {
    bool r = inner_->IsAnswerTrue(q, t);
    *log_ += "uanswer? " + TupleToString(t) + " -> " + YesNo(r) + "\n";
    return r;
  }

  std::optional<query::Assignment> Complete(
      const query::CQuery& q, const query::Assignment& partial) override {
    std::optional<query::Assignment> r = inner_->Complete(q, partial);
    *log_ += "complete? " + partial.ToString(q) + " -> " +
             (r.has_value() ? r->ToString(q) : "none") + "\n";
    return r;
  }

  std::optional<Tuple> MissingAnswer(const query::CQuery& q,
                                     const std::vector<Tuple>& current)
      override {
    std::optional<Tuple> r = inner_->MissingAnswer(q, current);
    LogMissing(current.size(), r);
    return r;
  }

  std::optional<Tuple> MissingAnswer(const query::UnionQuery& q,
                                     const std::vector<Tuple>& current)
      override {
    std::optional<Tuple> r = inner_->MissingAnswer(q, current);
    LogMissing(current.size(), r);
    return r;
  }

 private:
  static const char* YesNo(bool b) { return b ? "yes" : "no"; }

  void LogMissing(size_t num_current, const std::optional<Tuple>& r) {
    *log_ += "missing? [" + std::to_string(num_current) + " known] -> " +
             (r.has_value() ? TupleToString(*r) : "none") + "\n";
  }

  crowd::Oracle* inner_;
  const Database* db_;
  std::string* log_;
};

/// Appends `db`'s facts in sorted (value) order, independent of the row
/// store's swap-remove history.
void RenderSortedFacts(const Database& db, std::string* out) {
  std::vector<Fact> facts = db.AllFacts();
  std::sort(facts.begin(), facts.end());
  for (const Fact& f : facts) *out += "fact " + db.FactToString(f) + "\n";
}

/// Appends a finished session's edit sequence, question counts, final
/// answers and final database.
void RenderOutcome(const cleaning::CleanerStats& stats,
                   const std::vector<Tuple>& answers, const Database& db,
                   std::string* out) {
  for (const cleaning::Edit& e : stats.edits) {
    *out += "edit " + cleaning::EditToString(e, db) + "\n";
  }
  *out += "questions " + crowd::ToString(stats.questions) + "\n";
  for (const Tuple& t : answers) *out += "answer " + TupleToString(t) + "\n";
  RenderSortedFacts(db, out);
}

/// One cleaning session rendered as text: the question sequence, then its
/// outcome (RenderOutcome).
std::string RenderSession(const query::CQuery& q, const Database& dirty,
                          const Database& ground_truth,
                          cleaning::DeletionPolicy policy,
                          double oracle_error_rate) {
  std::string out;
  Database db = dirty;
  crowd::SimulatedOracle perfect(&ground_truth);
  crowd::ImperfectOracle imperfect(&ground_truth, oracle_error_rate,
                                   /*seed=*/4242);
  crowd::Oracle* member = oracle_error_rate > 0
                              ? static_cast<crowd::Oracle*>(&imperfect)
                              : static_cast<crowd::Oracle*>(&perfect);
  RecordingOracle recorder(member, &db, &out);
  crowd::CrowdPanel panel({&recorder}, crowd::PanelConfig{1});
  CleanerConfig config;
  config.deletion_policy = policy;
  QocoCleaner cleaner(q, &db, &panel, config, common::Rng(11));
  auto stats = cleaner.Run();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return out;
  RenderOutcome(*stats, query::Evaluator(&db).Evaluate(q).AnswerTuples(), db,
                &out);
  return out;
}

/// A witness-tracked evaluation rendered as text: every answer with its
/// witness list in discovery order and its assignment list in discovery
/// order. Pins the provenance machinery, not just the answer set.
std::string RenderEvaluation(const query::CQuery& q, const Database& db) {
  std::string out;
  query::Evaluator eval(&db);
  query::EvalResult result = eval.Evaluate(q);
  for (const query::AnswerInfo& info : result.answers()) {
    out += "answer " + TupleToString(info.tuple) + "\n";
    for (const provenance::Witness& w : info.witnesses) {
      out += "  witness " + w.ToString(db) + "\n";
    }
    for (const query::Assignment& a : info.assignments) {
      out += "  assignment " + a.ToString(q) + "\n";
    }
  }
  return out;
}

/// Compares `got` against the golden file, or rewrites it when
/// QOCO_REGEN_GOLDENS is set.
void CheckGolden(const std::string& name, const std::string& got) {
  const std::string path =
      std::string(QOCO_SOURCE_DIR) + "/tests/testdata/" + name + ".golden";
  if (std::getenv("QOCO_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with QOCO_REGEN_GOLDENS=1 to create)";
  std::stringstream want;
  want << in.rdbuf();
  if (got == want.str()) return;
  // Locate the first differing line for a readable failure.
  std::istringstream got_lines(got), want_lines(want.str());
  std::string g, w;
  size_t line = 0;
  while (true) {
    ++line;
    bool has_g = static_cast<bool>(std::getline(got_lines, g));
    bool has_w = static_cast<bool>(std::getline(want_lines, w));
    if (!has_g && !has_w) break;
    if (!has_g || !has_w || g != w) {
      FAIL() << name << ": transcript diverges from golden at line " << line
             << "\n  want: " << (has_w ? w : "<eof>")
             << "\n  got:  " << (has_g ? g : "<eof>");
    }
  }
  FAIL() << name << ": transcript differs from golden (same lines, "
         << "different bytes?)";
}

TEST(TranscriptGolden, FigureOneSessions) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  CheckGolden("fig1-q1-qoco-t1",
              RenderSession(sample->q1, *sample->dirty, *sample->ground_truth,
                            cleaning::DeletionPolicy::kQoco, 0.0));
  CheckGolden("fig1-q2-qoco-t1",
              RenderSession(sample->q2, *sample->dirty, *sample->ground_truth,
                            cleaning::DeletionPolicy::kQoco, 0.0));
  CheckGolden("fig1-q1-resp-imperfect-t1",
              RenderSession(sample->q1, *sample->dirty, *sample->ground_truth,
                            cleaning::DeletionPolicy::kResponsibility, 0.2));
}

TEST(TranscriptGolden, SoccerSessionWithPlantedErrors) {
  workload::SoccerParams params;
  params.num_tournaments = 8;
  params.teams_per_tournament = 10;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  auto q = workload::SoccerQuery(3, *data->catalog);
  ASSERT_TRUE(q.ok());
  auto planted =
      workload::PlantErrors(*q, *data->ground_truth, 2, 2, /*seed=*/9);
  ASSERT_TRUE(planted.ok());
  CheckGolden("soccer-q3-qoco-t1",
              RenderSession(*q, planted->db, *data->ground_truth,
                            cleaning::DeletionPolicy::kQoco, 0.0));
}

TEST(TranscriptGolden, DbGroupSessions) {
  auto data = workload::MakeDbGroupData(workload::DbGroupParams{});
  ASSERT_TRUE(data.ok());
  const size_t num_queries = std::min<size_t>(2, data->report_queries.size());
  for (size_t qi = 0; qi < num_queries; ++qi) {
    CheckGolden("dbgroup-q" + std::to_string(qi) + "-qoco-t1",
                RenderSession(data->report_queries[qi], *data->dirty,
                              *data->ground_truth,
                              cleaning::DeletionPolicy::kQoco, 0.0));
  }
}

TEST(TranscriptGolden, UnionSessions) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto u = query::ParseUnionQuery(
      "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
      "Teams(x, 'EU'), d1 != d2;"
      "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
      "Teams(x, 'SA'), d1 != d2.",
      *sample->catalog);
  ASSERT_TRUE(u.ok());
  std::string out;
  Database db = *sample->dirty;
  crowd::SimulatedOracle oracle(sample->ground_truth.get());
  RecordingOracle recorder(&oracle, &db, &out);
  crowd::CrowdPanel panel({&recorder}, crowd::PanelConfig{1});
  cleaning::UnionCleaner cleaner(*u, &db, &panel, CleanerConfig{},
                                 common::Rng(5));
  auto stats = cleaner.Run();
  ASSERT_TRUE(stats.ok());
  RenderOutcome(*stats, query::Evaluator(&db).Evaluate(*u).AnswerTuples(), db,
                &out);
  CheckGolden("union-fig1-t1", out);
}

TEST(TranscriptGolden, SoccerEvaluationWitnesses) {
  // Witness-tracked evaluation of the string-heavy soccer queries on dirty
  // data: the exact workload the interning speedup is measured on, pinned
  // answer-by-answer, witness-by-witness, assignment-by-assignment.
  workload::SoccerParams params;
  params.num_tournaments = 8;
  params.teams_per_tournament = 10;
  params.group_games_per_tournament = 8;
  params.players_per_team = 6;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  for (size_t qi = 1; qi <= 3; ++qi) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    workload::NoiseParams noise;
    noise.seed = 40 + qi;
    auto dirty = workload::MakeDirty(*data->ground_truth, noise);
    ASSERT_TRUE(dirty.ok());
    CheckGolden("soccer-eval-q" + std::to_string(qi) + "-t1",
                RenderEvaluation(*q, *dirty));
  }
}

TEST(TranscriptGolden, AggregateSessions) {
  // COUNT views through Session::CleanAggregateView: both HAVING
  // directions over planted base-query errors, one after the other in a
  // single golden.
  workload::SoccerParams params;
  params.num_tournaments = 8;
  params.teams_per_tournament = 10;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  // Units: (team, date) of European knockout wins.
  auto base = query::ParseQuery(
      "(x, d) :- Games(d, x, y, s, u), Stages(s, 'KO'), Teams(x, 'EU').",
      *data->catalog);
  ASSERT_TRUE(base.ok());
  auto planted =
      workload::PlantErrors(*base, *data->ground_truth, 3, 3, /*seed=*/17);
  ASSERT_TRUE(planted.ok());
  struct View {
    const char* label;
    query::AggregateQuery::Cmp cmp;
    size_t threshold;
  };
  const View kViews[] = {{">= 2", query::AggregateQuery::Cmp::kAtLeast, 2},
                         {"<= 2", query::AggregateQuery::Cmp::kAtMost, 2}};
  std::string out;
  for (const View& view : kViews) {
    auto agg = query::AggregateQuery::Make(*base, /*group_by_arity=*/1,
                                           view.cmp, view.threshold);
    ASSERT_TRUE(agg.ok());
    out += std::string("view ") + view.label + "\n";
    Database db = planted->db;
    crowd::SimulatedOracle oracle(data->ground_truth.get());
    RecordingOracle recorder(&oracle, &db, &out);
    Session session(&db, {&recorder});
    auto stats = session.CleanAggregateView(*agg);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    RenderOutcome(*stats, query::AggregateEvaluator(&db).AnswerTuples(*agg),
                  db, &out);
  }
  CheckGolden("soccer-aggregate", out);
}

}  // namespace
}  // namespace qoco
