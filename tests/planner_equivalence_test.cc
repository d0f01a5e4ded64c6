// Equivalence fuzz for the cost-based planner: across the figure-one /
// soccer / dbgroup workloads and random edit sequences, planned evaluation
// (cost-based root with semi-join reduction) must compute the same answers
// with the same witness sets and the same valid-assignment sets as the
// unplanned adaptive search that every limited probe runs — the planner
// may only reorder work, never change what is found.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/query/evaluator.h"
#include "src/relational/database.h"
#include "src/workload/dbgroup.h"
#include "src/workload/figure_one.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco {
namespace {

using relational::Database;
using relational::Fact;

/// FindExtensions runs the unplanned engine whenever a limit is set; the
/// largest limit lets it run to completion.
constexpr size_t kUnplanned = std::numeric_limits<size_t>::max();

/// The valid assignments extending `partial`, rendered and sorted. A
/// witness and an answer are functions of the assignment, so equal sets
/// mean equal answers and witness sets. Discovery order is deliberately
/// erased — the two engines are free to enumerate differently, but never
/// to find different things.
std::set<std::string> Extensions(const query::CQuery& q, const Database& db,
                                 const query::Assignment& partial,
                                 size_t limit) {
  std::set<std::string> out;
  for (const query::Assignment& a :
       query::Evaluator(&db).FindExtensions(q, partial, limit)) {
    out.insert(a.ToString(q));
  }
  return out;
}

void ExpectPlannedMatchesUnplanned(const query::CQuery& q, const Database& db,
                                   const std::string& context) {
  const query::Assignment empty(q.num_vars(), &db.dict());
  EXPECT_EQ(Extensions(q, db, empty, /*limit=*/0),
            Extensions(q, db, empty, kUnplanned))
      << context << ": planned diverges from unplanned";
}

/// Random erase/re-insert walk over the facts the query reads, checking
/// planned against unplanned after every edit (stats invalidation is
/// exercised for free: each edit bumps the relation version and the next
/// plan rebuilds from fresh summaries).
void FuzzEdits(const query::CQuery& q, const Database& initial,
               size_t num_edits, uint64_t seed, const std::string& context) {
  Database db = initial;
  common::Rng rng(seed);
  std::vector<Fact> pool;
  for (const query::Atom& atom : q.atoms()) {
    const relational::Relation& rel = db.relation(atom.relation);
    for (size_t pos = 0; pos < rel.size(); ++pos) {
      pool.push_back(Fact{atom.relation, rel.MaterializeRow(pos)});
    }
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  ASSERT_FALSE(pool.empty()) << context;
  ExpectPlannedMatchesUnplanned(q, db, context + " (initial)");
  for (size_t i = 0; i < num_edits; ++i) {
    const Fact& f = pool[rng.Index(pool.size())];
    if (db.Contains(f)) {
      ASSERT_TRUE(db.Erase(f).ok());
    } else {
      ASSERT_TRUE(db.Insert(f).ok());
    }
    ExpectPlannedMatchesUnplanned(
        q, db, context + " (edit " + std::to_string(i) + ")");
  }
}

TEST(PlannerEquivalenceTest, FigureOneQueries) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  FuzzEdits(sample->q1, *sample->dirty, 8, 501, "fig1-q1");
  FuzzEdits(sample->q2, *sample->dirty, 8, 502, "fig1-q2");
}

TEST(PlannerEquivalenceTest, SoccerQueries) {
  workload::SoccerParams params;
  params.num_tournaments = 4;
  params.teams_per_tournament = 6;
  params.group_games_per_tournament = 6;
  params.players_per_team = 4;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  for (size_t qi = 1; qi <= 3; ++qi) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    workload::NoiseParams noise;
    noise.seed = 600 + qi;
    auto dirty = workload::MakeDirty(*data->ground_truth, noise);
    ASSERT_TRUE(dirty.ok());
    FuzzEdits(*q, *dirty, 4, 700 + qi, "soccer-q" + std::to_string(qi));
  }
}

TEST(PlannerEquivalenceTest, DbGroupQueries) {
  workload::DbGroupParams params;
  params.num_members = 12;
  params.num_talks = 30;
  params.num_trips = 20;
  params.num_publications = 15;
  auto data = workload::MakeDbGroupData(params);
  ASSERT_TRUE(data.ok());
  for (size_t qi = 0; qi < 2 && qi < data->report_queries.size(); ++qi) {
    FuzzEdits(data->report_queries[qi], *data->dirty, 4, 800 + qi,
              "dbgroup-q" + std::to_string(qi));
  }
}

/// Partial-binding extension searches (the delta path IncrementalView
/// runs after every edit) must likewise agree, planned and unplanned.
TEST(PlannerEquivalenceTest, PartialBindingsAgreeAcrossModes) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  const query::CQuery& q = sample->q2;
  const Database& db = *sample->dirty;
  query::Evaluator eval(&db);
  // Seed partials from every planned extension: rebind a prefix of each
  // and re-extend both ways.
  std::vector<query::Assignment> all = eval.FindExtensions(
      q, query::Assignment(q.num_vars(), &db.dict()), /*limit=*/0);
  ASSERT_FALSE(all.empty());
  for (const query::Assignment& full : all) {
    query::Assignment partial(q.num_vars(), &db.dict());
    for (query::VarId v = 0; v < static_cast<query::VarId>(q.num_vars() / 2);
         ++v) {
      if (full.IsBound(v)) partial.BindId(v, full.IdOf(v));
    }
    EXPECT_EQ(Extensions(q, db, partial, /*limit=*/0),
              Extensions(q, db, partial, kUnplanned))
        << partial.ToString(q);
  }
}

}  // namespace
}  // namespace qoco
