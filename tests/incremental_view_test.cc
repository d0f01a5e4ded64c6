// Tests for query::IncrementalView: directed delta-rule cases (insert
// creates answers, delete garbage-collects witnesses, irrelevant relations
// are skipped, notifications are idempotent, witnesses keep discovery
// order), a randomized equivalence fuzz over the soccer and dbgroup
// workloads asserting the maintained view matches a from-scratch
// Evaluator::Evaluate after every edit, and a check that the
// view-maintaining cleaner repairs a planted view to the ground truth.

#include "src/query/incremental_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cleaning/cleaner.h"
#include "src/common/rng.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/relational/database.h"
#include "src/workload/dbgroup.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco::query {
namespace {

using relational::Database;
using relational::Fact;
using relational::Tuple;
using relational::Value;

/// Asserts that the maintained view matches `expected` exactly: same
/// answers (both sorted by tuple), per answer the same witness *set* (order
/// may differ between the paths).
void ExpectSameResult(const IncrementalView& view, const EvalResult& expected,
                      const char* context) {
  ASSERT_EQ(view.size(), expected.size()) << context;
  const std::vector<Tuple> tuples = view.AnswerTuples();
  for (size_t i = 0; i < expected.answers().size(); ++i) {
    const AnswerInfo& want = expected.answers()[i];
    ASSERT_EQ(tuples[i], want.tuple) << context;

    provenance::WitnessSet got_w = view.Witnesses(want.tuple);
    provenance::WitnessSet want_w = want.witnesses;
    if (!got_w.empty() || !want_w.empty()) {
      const provenance::Witness& any =
          got_w.empty() ? want_w.front() : got_w.front();
      provenance::WitnessLess less{any.dict()};
      std::sort(got_w.begin(), got_w.end(), less);
      std::sort(want_w.begin(), want_w.end(), less);
    }
    ASSERT_EQ(got_w == want_w, true)
        << context << ": witness sets differ for answer "
        << relational::TupleToString(want.tuple);
  }
}

class IncrementalViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.AddRelation("R", {"a", "b"});
    s_ = *catalog_.AddRelation("S", {"c"});
    u_ = *catalog_.AddRelation("U", {"d"});
    db_ = std::make_unique<Database>(&catalog_);
  }

  CQuery Parse(const std::string& text) {
    auto q = ParseQuery(text, catalog_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  relational::Catalog catalog_;
  relational::RelationId r_ = relational::kInvalidRelation;
  relational::RelationId s_ = relational::kInvalidRelation;
  relational::RelationId u_ = relational::kInvalidRelation;
  std::unique_ptr<Database> db_;
};

TEST_F(IncrementalViewTest, InsertDeltaCreatesAnswer) {
  ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("y")}}).ok());
  CQuery q = Parse("(a) :- R(a, b), S(b).");
  IncrementalView view(q, db_.get());
  EXPECT_EQ(view.size(), 0u);

  Fact f{s_, {Value("y")}};
  ASSERT_TRUE(db_->Insert(f).ok());
  view.OnInsert(f);
  EXPECT_EQ(view.AnswerTuples(), std::vector<Tuple>{Tuple{Value("x")}});
  EXPECT_EQ(view.stats().insert_deltas, 1u);
}

TEST_F(IncrementalViewTest, EraseDeltaRemovesAnswerAndWitness) {
  ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("y")}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("z")}}).ok());
  ASSERT_TRUE(db_->Insert({s_, {Value("y")}}).ok());
  ASSERT_TRUE(db_->Insert({s_, {Value("z")}}).ok());
  CQuery q = Parse("(a) :- R(a, b), S(b).");
  IncrementalView view(q, db_.get());
  const Tuple x{Value("x")};
  ASSERT_EQ(view.size(), 1u);
  ASSERT_EQ(view.Witnesses(x).size(), 2u);

  // Destroying one witness keeps the answer with the surviving witness.
  Fact f{s_, {Value("y")}};
  ASSERT_TRUE(db_->Erase(f).ok());
  view.OnErase(f);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view.Witnesses(x).size(), 1u);

  // Destroying the last witness erases the answer.
  Fact g{r_, {Value("x"), Value("z")}};
  ASSERT_TRUE(db_->Erase(g).ok());
  view.OnErase(g);
  EXPECT_EQ(view.size(), 0u);
  EXPECT_TRUE(view.Witnesses(x).empty());
  EXPECT_EQ(view.stats().erase_deltas, 2u);
}

TEST_F(IncrementalViewTest, IrrelevantRelationIsSkipped) {
  CQuery q = Parse("(a) :- R(a, b), S(b).");
  IncrementalView view(q, db_.get());
  Fact f{u_, {Value("w")}};
  ASSERT_TRUE(db_->Insert(f).ok());
  view.OnInsert(f);
  ASSERT_TRUE(db_->Erase(f).ok());
  view.OnErase(f);
  EXPECT_EQ(view.stats().skipped_deltas, 2u);
  EXPECT_EQ(view.stats().insert_deltas, 0u);
  EXPECT_EQ(view.stats().erase_deltas, 0u);
}

TEST_F(IncrementalViewTest, NotificationsAreIdempotent) {
  ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("y")}}).ok());
  ASSERT_TRUE(db_->Insert({s_, {Value("y")}}).ok());
  CQuery q = Parse("(a) :- R(a, b), S(b).");
  IncrementalView view(q, db_.get());

  // Replaying an insert already reflected in db and view must not
  // duplicate witnesses.
  view.OnInsert({s_, {Value("y")}});
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view.Witnesses(Tuple{Value("x")}).size(), 1u);

  // Replaying an erase of an absent fact is a no-op.
  view.OnErase({s_, {Value("nope")}});
  EXPECT_EQ(view.size(), 1u);
}

TEST_F(IncrementalViewTest, ReplayedInsertAndEraseKeepTheWitnessSet) {
  // An answer's witnesses are a set (their list order carries no meaning):
  // later inserts add theirs, a replayed insert adds nothing, and an erase
  // drops exactly the witnesses that hold the erased fact.
  for (const char* y : {"y1", "y2", "y3"}) {
    ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value(y)}}).ok());
  }
  ASSERT_TRUE(db_->Insert({s_, {Value("y2")}}).ok());
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  auto witnesses = [&] {
    std::vector<std::string> out;
    for (const provenance::Witness& w : view.Witnesses(Tuple{Value("x")})) {
      out.push_back(w.ToString(*db_));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const char* y : {"y3", "y1"}) {
    Fact f{s_, {Value(y)}};
    ASSERT_TRUE(db_->Insert(f).ok());
    view.OnInsert(f);
  }
  const std::vector<std::string> all = {"{R(x, y1), S(y1)}",
                                        "{R(x, y2), S(y2)}",
                                        "{R(x, y3), S(y3)}"};
  EXPECT_EQ(witnesses(), all);

  view.OnInsert({s_, {Value("y1")}});
  EXPECT_EQ(witnesses(), all);

  Fact y3{s_, {Value("y3")}};
  ASSERT_TRUE(db_->Erase(y3).ok());
  view.OnErase(y3);
  EXPECT_EQ(witnesses(), (std::vector<std::string>{"{R(x, y1), S(y1)}",
                                                   "{R(x, y2), S(y2)}"}));
}

TEST_F(IncrementalViewTest, SelfJoinPinsEveryAtom) {
  // f participates at both atoms of a self-join; the delta must not
  // double-count the assignment discovered via each pin.
  CQuery q = Parse("(a, c) :- R(a, b), R(b, c).");
  ASSERT_TRUE(db_->Insert({r_, {Value("p"), Value("p")}}).ok());
  IncrementalView view(q, db_.get());
  ASSERT_EQ(view.size(), 1u);

  Fact f{r_, {Value("p"), Value("q")}};
  ASSERT_TRUE(db_->Insert(f).ok());
  view.OnInsert(f);
  Evaluator evaluator(db_.get());
  ExpectSameResult(view, evaluator.Evaluate(q), "self join");
}

TEST_F(IncrementalViewTest, UnionViewMergesAndCombinesWitnesses) {
  ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("y")}}).ok());
  ASSERT_TRUE(db_->Insert({s_, {Value("x")}}).ok());
  auto u = ParseUnionQuery("(a) :- R(a, b); (a) :- S(a).", catalog_);
  ASSERT_TRUE(u.ok());
  IncrementalUnionView view(*u, db_.get());
  EXPECT_EQ(view.AnswerTuples().size(), 1u);  // "x" from both disjuncts.
  EXPECT_EQ(view.Witnesses(Tuple{Value("x")}).size(), 2u);

  Fact f{s_, {Value("w")}};
  ASSERT_TRUE(db_->Insert(f).ok());
  view.OnInsert(f);
  EXPECT_EQ(view.AnswerTuples().size(), 2u);

  ASSERT_TRUE(db_->Erase(f).ok());
  view.OnErase(f);
  EXPECT_EQ(view.AnswerTuples().size(), 1u);
}

/// One fuzz session: random interleaving of inserts and deletes against
/// `db`, checking the maintained view against a from-scratch evaluation
/// after every step. Deletions pick random rows of the query's relations;
/// insertions either restore a previously-deleted fact, pull a fact the
/// reference database has and `db` lacks, or fabricate one by perturbing a
/// column of an existing row with a value from the reference column domain.
/// (`performed` is an out-param because gtest ASSERTs need a void return.)
void FuzzQuery(const CQuery& q, Database* db, const Database& reference,
               size_t steps, common::Rng* rng, size_t* performed) {
  Evaluator evaluator(db);  // From-scratch reference evaluation.
  IncrementalView view(q, db);
  ExpectSameResult(view, evaluator.Evaluate(q), "initial");

  std::vector<relational::RelationId> rels;
  for (const Atom& atom : q.atoms()) {
    if (std::find(rels.begin(), rels.end(), atom.relation) == rels.end()) {
      rels.push_back(atom.relation);
    }
  }
  std::vector<Fact> erased_pool;
  for (size_t step = 0; step < steps; ++step) {
    relational::RelationId rel = rels[rng->Index(rels.size())];
    const relational::Relation& instance = db->relation(rel);
    bool do_erase = !instance.empty() && rng->Chance(0.5);
    if (do_erase) {
      Fact victim{rel, instance.MaterializeRow(rng->Index(instance.size()))};
      ASSERT_TRUE(db->Erase(victim).ok()) << "erase failed";
      view.OnErase(victim);
      erased_pool.push_back(std::move(victim));
    } else {
      Fact fresh;
      double dice = rng->Real();
      if (!erased_pool.empty() && dice < 0.4) {
        fresh = erased_pool[rng->Index(erased_pool.size())];
      } else if (dice < 0.7 && !reference.relation(rel).empty()) {
        const relational::Relation& ref_rel = reference.relation(rel);
        fresh = Fact{rel, ref_rel.MaterializeRow(rng->Index(ref_rel.size()))};
      } else if (!instance.empty()) {
        Tuple t = instance.MaterializeRow(rng->Index(instance.size()));
        size_t col = rng->Index(t.size());
        std::vector<Value> domain = reference.relation(rel).ColumnDomain(col);
        if (!domain.empty()) t[col] = domain[rng->Index(domain.size())];
        fresh = Fact{rel, std::move(t)};
      } else {
        continue;
      }
      auto changed = db->Insert(fresh);
      ASSERT_TRUE(changed.ok()) << changed.status().ToString();
      view.OnInsert(fresh);
    }
    ++*performed;
    ExpectSameResult(view, evaluator.Evaluate(q), "after step");
    // Periodic deep audit: the index maintenance inside the database and
    // the delta-maintained view both uphold their class invariants, not
    // just result equality.
    if (step % 25 == 0) {
      common::Status view_audit = view.AuditInvariants();
      ASSERT_TRUE(view_audit.ok()) << view_audit.ToString();
      common::Status db_audit = db->AuditInvariants();
      ASSERT_TRUE(db_audit.ok()) << db_audit.ToString();
    }
  }
}

TEST(IncrementalViewFuzzTest, MatchesFullEvaluationOnSoccer) {
  workload::SoccerParams params;
  params.num_tournaments = 8;
  params.teams_per_tournament = 10;
  params.group_games_per_tournament = 8;
  params.players_per_team = 6;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  common::Rng rng(2026);
  size_t total = 0;
  for (size_t qi = 1; qi <= 5; ++qi) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    workload::NoiseParams noise;
    noise.seed = 100 + qi;
    auto dirty = workload::MakeDirty(*data->ground_truth, noise);
    ASSERT_TRUE(dirty.ok());
    Database db = std::move(dirty).value();
    FuzzQuery(*q, &db, *data->ground_truth, 150, &rng, &total);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(total, 600u);
}

TEST(IncrementalViewFuzzTest, MatchesFullEvaluationOnDbGroup) {
  auto data = workload::MakeDbGroupData(workload::DbGroupParams{});
  ASSERT_TRUE(data.ok());
  common::Rng rng(77);
  size_t total = 0;
  for (size_t qi = 0; qi < data->report_queries.size(); ++qi) {
    Database db = *data->dirty;
    FuzzQuery(data->report_queries[qi], &db, *data->ground_truth, 130, &rng,
              &total);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(total, 400u);
}

/// Asserts that `a` and `b` have the same built column indexes and that
/// every built posting list holds the same positions in the same order.
void ExpectSameIndexes(const Database& a, const Database& b) {
  for (size_t r = 0; r < a.catalog().size(); ++r) {
    const auto rel = static_cast<relational::RelationId>(r);
    const relational::Relation& x = a.relation(rel);
    const relational::Relation& y = b.relation(rel);
    for (size_t col = 0; col < x.arity(); ++col) {
      SCOPED_TRACE(a.catalog().relation_name(rel) + " column " +
                   std::to_string(col));
      ASSERT_EQ(x.IndexBuilt(col), y.IndexBuilt(col));
      if (!x.IndexBuilt(col)) continue;
      EXPECT_TRUE(x.ColumnPostings(col) == y.ColumnPostings(col));
    }
  }
}

/// The first extension of a limited search over each single-atom subquery
/// of Q|t, for every answer t in `answers`: what Algorithm 2's
/// data-directed extension reads from posting-list order (empty witness:
/// none found).
std::vector<provenance::Witness> FirstExtensions(
    const CQuery& q, const std::vector<Tuple>& answers, const Database& db) {
  Evaluator evaluator(&db);
  std::vector<provenance::Witness> firsts;
  for (const Tuple& t : answers) {
    auto q_t = q.InstantiateAnswer(t);
    EXPECT_TRUE(q_t.ok()) << q_t.status().ToString();
    if (!q_t.ok()) continue;
    for (size_t i = 0; i < q_t->atoms().size(); ++i) {
      CQuery sub = q_t->Subquery({i});
      std::vector<Assignment> exts = evaluator.FindExtensions(
          sub, Assignment(sub.num_vars(), &db.dict()), /*limit=*/1);
      firsts.push_back(exts.empty() ? provenance::Witness()
                                    : Evaluator::WitnessFor(sub, exts[0]));
    }
  }
  return firsts;
}

// A view started from a seed equals one that evaluated, down to the
// posting lists its evaluation built, also after further erases: the seed's
// columns are built on the adopting database before any edit. A database
// that builds them only after the erases (as one that skipped that step
// would) finds other first extensions, which reach crowd questions.
TEST(ViewSeedTest, SeededViewMatchesAColdViewAfterErases) {
  auto data = workload::MakeSoccerData(workload::SoccerParams{});
  ASSERT_TRUE(data.ok());
  workload::NoiseParams noise;
  noise.seed = 41;
  auto dirty = workload::MakeDirty(*data->ground_truth, noise);
  ASSERT_TRUE(dirty.ok());
  // Rows erased before any view exists, as a replayed journal erases them.
  Database base = std::move(dirty).value();
  common::Rng rng(5);
  for (size_t r = 0; r < base.catalog().size(); ++r) {
    const auto rel = static_cast<relational::RelationId>(r);
    for (size_t k = 0; k < 20 && !base.relation(rel).empty(); ++k) {
      const relational::Relation& instance = base.relation(rel);
      Fact victim{rel, instance.MaterializeRow(rng.Index(instance.size()))};
      ASSERT_TRUE(base.Erase(victim).ok());
    }
  }

  size_t searches = 0;
  size_t differ_without_replay = 0;
  for (size_t qi = 1; qi <= 5; ++qi) {
    SCOPED_TRACE("Q" + std::to_string(qi));
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    Database cold_db = base;
    Database seeded_db = base;
    Database late_db = base;  // Builds its indexes only after the erases.
    const ViewSeed seed = [&] {
      Database maker = base;
      return MakeViewSeed(*q, maker);
    }();
    IncrementalView cold(*q, &cold_db);
    IncrementalView seeded(*q, &seeded_db, seed);
    ExpectSameIndexes(cold_db, seeded_db);
    if (::testing::Test::HasFatalFailure()) return;

    // The same erases on every copy: witness facts of the view's answers,
    // so the view shrinks and built posting lists are patched.
    std::vector<Fact> erases;
    for (const Tuple& t : cold.AnswerTuples()) {
      if (rng.Chance(0.5)) continue;
      const provenance::WitnessSet& witnesses = cold.Witnesses(t);
      const provenance::Witness& w =
          witnesses[rng.Index(witnesses.size())];
      const relational::IFact& f = w.facts()[rng.Index(w.facts().size())];
      erases.push_back(relational::MaterializeFact(f, base.dict()));
    }
    for (const Fact& f : erases) {
      for (Database* db : {&cold_db, &seeded_db, &late_db}) {
        ASSERT_TRUE(db->Erase(f).ok());
      }
      cold.OnErase(f);
      seeded.OnErase(f);
    }

    // Same answers, same witness lists in the same order.
    const std::vector<Tuple> answers = cold.AnswerTuples();
    ASSERT_EQ(answers, seeded.AnswerTuples());
    for (const Tuple& t : answers) {
      EXPECT_TRUE(cold.Witnesses(t) == seeded.Witnesses(t))
          << "witnesses of " << relational::TupleToString(t);
    }
    ExpectSameIndexes(cold_db, seeded_db);
    if (::testing::Test::HasFatalFailure()) return;

    std::vector<provenance::Witness> want =
        FirstExtensions(*q, answers, cold_db);
    std::vector<provenance::Witness> got =
        FirstExtensions(*q, answers, seeded_db);
    std::vector<provenance::Witness> late =
        FirstExtensions(*q, answers, late_db);
    ASSERT_EQ(want.size(), got.size());
    ASSERT_EQ(want.size(), late.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(want[i] == got[i]) << "limited search " << i;
      if (!(want[i] == late[i])) ++differ_without_replay;
    }
    searches += want.size();
  }
  // The comparison has teeth: building the indexes late changes some of
  // the first extensions.
  EXPECT_GT(searches, 50u);
  EXPECT_GT(differ_without_replay, 0u);
}

// Views started from one seed share its witness sets, and a delta replaces
// the sets it changes instead of writing them. After one adopter erases and
// re-inserts witness facts, the seed and a second adopter still hold the
// evaluation's sets, list for list, and each adopter equals a from-scratch
// evaluation of its own database.
TEST(ViewSeedTest, AdoptersShareWitnessSetsThatEditsReplace) {
  auto data = workload::MakeSoccerData(workload::SoccerParams{});
  ASSERT_TRUE(data.ok());
  workload::NoiseParams noise;
  noise.seed = 43;
  auto dirty = workload::MakeDirty(*data->ground_truth, noise);
  ASSERT_TRUE(dirty.ok());
  const Database base = std::move(dirty).value();
  common::Rng rng(11);

  size_t replaced = 0;
  size_t still_shared = 0;
  for (size_t qi = 1; qi <= 5; ++qi) {
    SCOPED_TRACE(::testing::Message() << "Q" << qi);
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    const ViewSeed seed = [&] {
      Database maker = base;
      return MakeViewSeed(*q, maker);
    }();
    // A deep copy of the seed's answers, to compare against after the edits.
    std::vector<std::pair<Tuple, provenance::WitnessSet>> evaluated;
    for (const ViewAnswer& answer : seed.answers) {
      evaluated.emplace_back(answer.tuple, *answer.witnesses);
    }

    Database first_db = base;
    Database second_db = base;
    IncrementalView first(*q, &first_db, seed);
    IncrementalView second(*q, &second_db, seed);
    for (const ViewAnswer& answer : seed.answers) {
      ASSERT_EQ(&first.Witnesses(answer.tuple), answer.witnesses.get());
      ASSERT_EQ(&second.Witnesses(answer.tuple), answer.witnesses.get());
    }

    // The first adopter erases a witness fact of about half the answers,
    // then re-inserts every other erased fact.
    std::vector<Fact> erased;
    for (const ViewAnswer& answer : seed.answers) {
      if (rng.Chance(0.5)) continue;
      const provenance::Witness& w =
          (*answer.witnesses)[rng.Index(answer.witnesses->size())];
      const relational::IFact& f = w.facts()[rng.Index(w.facts().size())];
      erased.push_back(relational::MaterializeFact(f, base.dict()));
    }
    for (const Fact& f : erased) {
      ASSERT_TRUE(first_db.Erase(f).ok());
      first.OnErase(f);
    }
    for (size_t i = 0; i < erased.size(); i += 2) {
      ASSERT_TRUE(first_db.Insert(erased[i]).ok());
      first.OnInsert(erased[i]);
    }

    // The seed and the second adopter are untouched.
    ASSERT_EQ(seed.answers.size(), evaluated.size());
    ASSERT_EQ(second.size(), evaluated.size());
    for (size_t i = 0; i < evaluated.size(); ++i) {
      const auto& [tuple, witnesses] = evaluated[i];
      ASSERT_EQ(seed.answers[i].tuple, tuple);
      EXPECT_TRUE(*seed.answers[i].witnesses == witnesses)
          << "seed set of " << relational::TupleToString(tuple);
      EXPECT_TRUE(second.Witnesses(tuple) == witnesses)
          << "second adopter's set of " << relational::TupleToString(tuple);
      const provenance::WitnessSet* held = &first.Witnesses(tuple);
      if (held == seed.answers[i].witnesses.get()) {
        ++still_shared;
      } else {
        ++replaced;
      }
    }

    // Both adopters equal a from-scratch evaluation of their databases.
    ExpectSameResult(first, Evaluator(&first_db).Evaluate(*q), "first");
    ExpectSameResult(second, Evaluator(&second_db).Evaluate(*q), "second");
    if (::testing::Test::HasFatalFailure()) return;
    common::Status audit = first.AuditInvariants();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }
  // The edits replaced some sets and left the others shared.
  EXPECT_GT(replaced, 10u);
  EXPECT_GT(still_shared, 10u);
}

// The cleaner's maintained view repairs planted errors exactly: the final
// answers equal Q(DG), and every planted wrong (missing) answer is counted
// once as removed (added).
TEST(IncrementalCleanerABTest, BothPathsRepairToGroundTruthView) {
  workload::SoccerParams params;
  params.num_tournaments = 8;
  params.teams_per_tournament = 10;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  auto q = workload::SoccerQuery(3, *data->catalog);
  ASSERT_TRUE(q.ok());
  auto planted = workload::PlantErrors(*q, *data->ground_truth, 2, 2,
                                       /*seed=*/9);
  ASSERT_TRUE(planted.ok());
  Evaluator truth_eval(data->ground_truth.get());
  std::vector<Tuple> truth_answers = truth_eval.Evaluate(*q).AnswerTuples();

  Database db = planted->db;
  crowd::SimulatedOracle oracle(data->ground_truth.get());
  crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
  cleaning::QocoCleaner cleaner(*q, &db, &panel, cleaning::CleanerConfig{},
                                common::Rng(4));
  auto stats = cleaner.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  Evaluator eval(&db);
  EXPECT_EQ(eval.Evaluate(*q).AnswerTuples(), truth_answers);
  EXPECT_EQ(stats->wrong_answers_removed, planted->wrong.size());
  EXPECT_EQ(stats->missing_answers_added, planted->missing.size());
}

}  // namespace
}  // namespace qoco::query
