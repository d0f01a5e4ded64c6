// Equivalence fuzz for the interned storage engine plus corruption
// injection for the dictionary audits.
//
// The fuzz half pins the engine against a *value-materialized reference*:
// a naive nested-loop evaluator that joins, compares and deduplicates
// entirely in Value space (no Assignment, no ValueId, no posting lists).
// Across the figure-one / soccer / dbgroup / union workloads and random
// edit sequences, the interned evaluator must produce the same answers and
// the same witness sets as the reference.
//
// The corruption half seeds one dictionary invariant violation per test
// through a friend backdoor and asserts ValueDictionary::AuditInvariants
// detects it: a dangling id (reverse map past the table), a duplicate
// intern (two slots for one value), and a density gap (a slot missing from
// its reverse map).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/relational/database.h"
#include "src/relational/value_dictionary.h"
#include "src/workload/dbgroup.h"
#include "src/workload/figure_one.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco::relational {

// Friend of ValueDictionary (declared in value_dictionary.h): reaches the
// slot table and reverse maps to seed invariant violations.
struct ValueDictionaryCorruptor {
  static std::vector<Value>& Slots(ValueDictionary& d) { return d.slots_; }
  static auto& StringSlots(ValueDictionary& d) { return d.string_slots_; }
  static auto& IntSlots(ValueDictionary& d) { return d.int_slots_; }
};

namespace {

void ExpectViolation(const common::Status& s, const std::string& needle) {
  ASSERT_FALSE(s.ok()) << "audit passed on a corrupted dictionary";
  EXPECT_EQ(s.code(), common::StatusCode::kInternal);
  EXPECT_NE(s.message().find(needle), std::string::npos)
      << "audit message does not mention \"" << needle << "\":\n"
      << s.message();
}

ValueDictionary PopulatedDictionary() {
  ValueDictionary dict;
  dict.InternString("alpha");
  dict.InternString("beta");
  dict.InternInt(1'000'000'000'000);  // Out of inline range: takes a slot.
  dict.InternDouble(2.5);
  dict.Intern(Value());    // kNullId, no slot.
  dict.Intern(Value(42));  // Inline, no slot.
  return dict;
}

TEST(ValueDictionaryAuditTest, CleanDictionaryPasses) {
  ValueDictionary dict = PopulatedDictionary();
  common::Status audit = dict.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  // Re-interning is idempotent and keeps the audit green.
  EXPECT_EQ(dict.InternString("alpha"), dict.InternString("alpha"));
  EXPECT_TRUE(dict.AuditInvariants().ok());
}

TEST(ValueDictionaryAuditTest, DetectsDanglingId) {
  ValueDictionary dict = PopulatedDictionary();
  // A reverse-map entry pointing past the slot table: any id minted from it
  // would dangle.
  ValueDictionaryCorruptor::StringSlots(dict)["phantom"] = 999;
  ExpectViolation(dict.AuditInvariants(), "out-of-range slot");
}

TEST(ValueDictionaryAuditTest, DetectsDuplicateIntern) {
  ValueDictionary dict = PopulatedDictionary();
  // A second slot for an already-interned value: ids stop being canonical,
  // so id equality would diverge from value equality.
  ValueDictionaryCorruptor::Slots(dict).push_back(Value("alpha"));
  ExpectViolation(dict.AuditInvariants(), "duplicate intern");
}

TEST(ValueDictionaryAuditTest, DetectsDensityGap) {
  ValueDictionary dict = PopulatedDictionary();
  ValueDictionaryCorruptor::StringSlots(dict).erase("beta");
  ExpectViolation(dict.AuditInvariants(), "missing from its reverse map");
}

TEST(ValueDictionaryAuditTest, DetectsSlotHoldingInlineRangeInt) {
  ValueDictionary dict = PopulatedDictionary();
  // Small non-negative ints must encode inline, never occupy a slot. (A
  // named copy: moving a Value temporary in trips GCC 12's false
  // -Wmaybe-uninitialized, PR105593.)
  const Value seven(7);
  ValueDictionaryCorruptor::Slots(dict).push_back(seven);
  ValueDictionaryCorruptor::IntSlots(dict)[7] =
      static_cast<uint32_t>(dict.size() - 1);
  ExpectViolation(dict.AuditInvariants(), "inline-range int");
}

}  // namespace
}  // namespace qoco::relational

namespace qoco {
namespace {

using relational::Database;
using relational::Fact;
using relational::Tuple;
using relational::TupleToString;
using relational::Value;

// ---------------------------------------------------------------------------
// Value-materialized reference evaluation.
// ---------------------------------------------------------------------------

/// Answers mapped to their witness *sets*; witnesses are sorted,
/// deduplicated fact lists. Everything is held and compared in Value space.
using RefResult = std::map<Tuple, std::set<std::vector<Fact>>>;

/// Naive nested-loop join in Value space: per atom, scan every materialized
/// row, match constants and already-bound variables by Value equality, bind
/// the rest, and at the leaf check inequalities and emit head + witness.
void ReferenceRecurse(const query::CQuery& q, const Database& db,
                      size_t atom_index, std::vector<std::optional<Value>>* b,
                      std::vector<Fact>* used, RefResult* out) {
  if (atom_index == q.atoms().size()) {
    for (const query::Inequality& ineq : q.inequalities()) {
      const std::optional<Value>& lhs = (*b)[ineq.lhs.var()];
      std::optional<Value> rhs =
          ineq.rhs.is_variable()
              ? (*b)[ineq.rhs.var()]
              : std::optional<Value>(ineq.rhs.constant());
      if (!lhs.has_value() || !rhs.has_value() || *lhs == *rhs) return;
    }
    Tuple head;
    for (const query::Term& t : q.head()) {
      head.push_back(t.is_variable() ? *(*b)[t.var()] : t.constant());
    }
    std::vector<Fact> witness = *used;
    std::sort(witness.begin(), witness.end());
    witness.erase(std::unique(witness.begin(), witness.end()), witness.end());
    (*out)[head].insert(std::move(witness));
    return;
  }
  const query::Atom& atom = q.atoms()[atom_index];
  const relational::Relation& rel = db.relation(atom.relation);
  for (size_t pos = 0; pos < rel.size(); ++pos) {
    Tuple row = rel.MaterializeRow(pos);
    std::vector<query::VarId> bound_here;
    bool match = true;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const query::Term& term = atom.terms[i];
      if (term.is_constant()) {
        if (!(row[i] == term.constant())) {
          match = false;
          break;
        }
      } else if ((*b)[term.var()].has_value()) {
        if (!(row[i] == *(*b)[term.var()])) {
          match = false;
          break;
        }
      } else {
        (*b)[term.var()] = row[i];
        bound_here.push_back(term.var());
      }
    }
    if (match) {
      used->push_back(Fact{atom.relation, row});
      ReferenceRecurse(q, db, atom_index + 1, b, used, out);
      used->pop_back();
    }
    for (query::VarId v : bound_here) (*b)[v] = std::nullopt;
  }
}

RefResult ReferenceEvaluate(const query::CQuery& q, const Database& db) {
  RefResult out;
  std::vector<std::optional<Value>> binding(q.num_vars());
  std::vector<Fact> used;
  ReferenceRecurse(q, db, 0, &binding, &used, &out);
  return out;
}

/// The interned engine's result, materialized into the same shape.
RefResult EngineEvaluate(const query::CQuery& q, const Database& db) {
  query::Evaluator eval(&db);
  query::EvalResult result = eval.Evaluate(q);
  RefResult out;
  for (const query::AnswerInfo& info : result.answers()) {
    std::set<std::vector<Fact>>& witnesses = out[info.tuple];
    for (const provenance::Witness& w : info.witnesses) {
      std::vector<Fact> facts = w.MaterializeFacts();
      std::sort(facts.begin(), facts.end());
      witnesses.insert(std::move(facts));
    }
  }
  return out;
}

void ExpectEquivalent(const query::CQuery& q, const Database& db,
                      const std::string& context) {
  RefResult want = ReferenceEvaluate(q, db);
  RefResult got = EngineEvaluate(q, db);
  ASSERT_EQ(got.size(), want.size()) << context << ": answer count";
  for (const auto& [tuple, witnesses] : want) {
    auto it = got.find(tuple);
    ASSERT_NE(it, got.end())
        << context << ": engine misses answer " << TupleToString(tuple);
    EXPECT_EQ(it->second, witnesses)
        << context << ": witness sets differ for " << TupleToString(tuple);
  }
}

/// Random erase/re-insert walk over the facts the query reads, checking
/// equivalence after every edit (the incremental path is exercised by the
/// cleaner; here each edit re-evaluates from scratch on both sides).
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
  ExpectEquivalent(q, db, context + " (initial)");
  for (size_t i = 0; i < num_edits; ++i) {
    const Fact& f = pool[rng.Index(pool.size())];
    if (db.Contains(f)) {
      ASSERT_TRUE(db.Erase(f).ok());
    } else {
      ASSERT_TRUE(db.Insert(f).ok());
    }
    ExpectEquivalent(q, db, context + " (edit " + std::to_string(i) + ")");
  }
}

TEST(InternEquivalenceTest, FigureOneQueries) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  FuzzEdits(sample->q1, *sample->dirty, 8, 101, "fig1-q1");
  FuzzEdits(sample->q2, *sample->dirty, 8, 102, "fig1-q2");
}

TEST(InternEquivalenceTest, SoccerQueries) {
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
    noise.seed = 200 + qi;
    auto dirty = workload::MakeDirty(*data->ground_truth, noise);
    ASSERT_TRUE(dirty.ok());
    FuzzEdits(*q, *dirty, 4, 300 + qi, "soccer-q" + std::to_string(qi));
  }
}

TEST(InternEquivalenceTest, DbGroupQueries) {
  workload::DbGroupParams params;
  params.num_members = 12;
  params.num_talks = 30;
  params.num_trips = 20;
  params.num_publications = 15;
  auto data = workload::MakeDbGroupData(params);
  ASSERT_TRUE(data.ok());
  for (size_t qi = 0; qi < 2 && qi < data->report_queries.size(); ++qi) {
    FuzzEdits(data->report_queries[qi], *data->dirty, 4, 400 + qi,
              "dbgroup-q" + std::to_string(qi));
  }
}

TEST(InternEquivalenceTest, UnionQueryAnswersMatchPerDisjunctReference) {
  auto sample = workload::MakeFigureOneSample();
  ASSERT_TRUE(sample.ok());
  auto u = query::ParseUnionQuery(
      "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
      "Teams(x, 'EU'), d1 != d2;"
      "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
      "Teams(x, 'SA'), d1 != d2.",
      *sample->catalog);
  ASSERT_TRUE(u.ok());
  // Reference: union of per-disjunct answer sets, each from the naive
  // Value-space evaluator.
  std::set<Tuple> want;
  for (const query::CQuery& disjunct : u->disjuncts()) {
    for (const auto& [tuple, witnesses] :
         ReferenceEvaluate(disjunct, *sample->dirty)) {
      want.insert(tuple);
    }
  }
  query::Evaluator eval(sample->dirty.get());
  std::vector<Tuple> got = eval.Evaluate(*u).AnswerTuples();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
      << "union answers diverge from per-disjunct reference";
}

}  // namespace
}  // namespace qoco
