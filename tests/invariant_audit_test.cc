// Corruption-injection tests for the deep AuditInvariants() audits: each
// test seeds exactly one class-invariant violation through a test-only
// friend backdoor and asserts the audit detects it (and names it), while
// clean structures — including ones that went through heavy mixed
// insert/erase traffic — pass. Covers relational::Relation /
// relational::Database, query::IncrementalView / IncrementalUnionView, and
// hittingset::AuditHittingSet.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/hittingset/hitting_set.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"
#include "src/query/parser.h"
#include "src/relational/database.h"
#include "src/relational/relation.h"

namespace qoco::relational {

// Friend of Relation (declared in relation.h): pokes the private index and
// membership structures to seed invariant violations.
struct RelationCorruptor {
  static void BuildIndex(const Relation& r, size_t column) {
    r.EnsureIndex(column);
  }
  // Interns `v` through the relation's dictionary on the way in: corruption
  // tests plant postings under values ("ghost") that no stored row carries.
  static std::vector<uint32_t>& Postings(const Relation& r, size_t column,
                                         const Value& v) {
    // mutable member; creates the posting list if absent
    return r.column_index_[column][r.dict_->Intern(v)];
  }
  static std::unordered_map<ITuple, uint32_t, ITupleHash>& Membership(
      Relation& r) {
    return r.membership_;
  }
  static ITuple Ids(const Relation& r, const Tuple& t) {
    return InternTuple(t, r.dict_);
  }
  // Databases only hand out const relations; the corruptor is the one place
  // allowed to break that seal.
  static Relation& Mutable(const Database& db, RelationId id) {
    return const_cast<Relation&>(db.relation(id));
  }
};

namespace {

Relation MakeIndexedRelation(ValueDictionary* dict) {
  Relation r(2, dict);
  r.Insert({Value("a"), Value(1)});
  r.Insert({Value("a"), Value(2)});
  r.Insert({Value("b"), Value(2)});
  r.Insert({Value("c"), Value(3)});
  // Build both column indexes so the audit covers them.
  RelationCorruptor::BuildIndex(r, 0);
  RelationCorruptor::BuildIndex(r, 1);
  return r;
}

void ExpectViolation(const common::Status& s, const std::string& needle) {
  ASSERT_FALSE(s.ok()) << "audit passed on a corrupted structure";
  EXPECT_EQ(s.code(), common::StatusCode::kInternal);
  EXPECT_NE(s.message().find(needle), std::string::npos)
      << "audit message does not mention \"" << needle
      << "\":\n" << s.message();
}

TEST(RelationAuditTest, CleanRelationPassesAfterMixedMutations) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  EXPECT_TRUE(r.AuditInvariants().ok());

  // Exercise the swap-remove maintenance: erase from the middle and the
  // end, reinsert, and erase again while both indexes are live.
  EXPECT_TRUE(r.Erase({Value("a"), Value(2)}));
  EXPECT_TRUE(r.Erase({Value("c"), Value(3)}));
  EXPECT_TRUE(r.Insert({Value("d"), Value(1)}));
  EXPECT_TRUE(r.Erase({Value("a"), Value(1)}));
  EXPECT_FALSE(r.Erase({Value("a"), Value(1)}));  // idempotent
  common::Status audit = r.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(RelationAuditTest, DetectsStalePostingPosition) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  RelationCorruptor::Postings(r, 0, Value("a")).push_back(99);
  ExpectViolation(r.AuditInvariants(), "stale position 99");
}

TEST(RelationAuditTest, DetectsPostingUnderWrongValue) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  // Move row 3's posting ("c") under "b": the audit must flag the value
  // mismatch (and the now-dangling coverage of "c").
  std::vector<uint32_t>& from = RelationCorruptor::Postings(r, 0, Value("c"));
  uint32_t pos = from.back();
  from.pop_back();
  RelationCorruptor::Postings(r, 0, Value("b")).push_back(pos);
  ExpectViolation(r.AuditInvariants(), "whose value is");
}

TEST(RelationAuditTest, DetectsDuplicatePosting) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  std::vector<uint32_t>& list = RelationCorruptor::Postings(r, 0, Value("a"));
  list.push_back(list.front());
  ExpectViolation(r.AuditInvariants(), "duplicate positions");
}

TEST(RelationAuditTest, DetectsEmptyPostingList) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  // operator[] creates the empty list the erase path must never leave.
  RelationCorruptor::Postings(r, 1, Value("ghost"));
  ExpectViolation(r.AuditInvariants(), "empty posting list");
}

TEST(RelationAuditTest, DetectsMembershipPointingAtWrongRow) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  auto& membership = RelationCorruptor::Membership(r);
  membership[RelationCorruptor::Ids(r, Tuple{Value("a"), Value(1)})] = 3;
  ExpectViolation(r.AuditInvariants(), "membership points");
}

TEST(RelationAuditTest, DetectsMissingMembershipEntry) {
  ValueDictionary dict;
  Relation r = MakeIndexedRelation(&dict);
  RelationCorruptor::Membership(r).erase(
      RelationCorruptor::Ids(r, Tuple{Value("b"), Value(2)}));
  ExpectViolation(r.AuditInvariants(), "missing from the membership map");
}

TEST(DatabaseAuditTest, PrefixesViolationsWithTheRelationName) {
  Catalog catalog;
  RelationId r = *catalog.AddRelation("Player", {"name", "team"});
  RelationId s = *catalog.AddRelation("Team", {"name"});
  Database db(&catalog);
  ASSERT_TRUE(db.Insert({r, {Value("p"), Value("t")}}).ok());
  ASSERT_TRUE(db.Insert({s, {Value("t")}}).ok());
  EXPECT_TRUE(db.AuditInvariants().ok());

  RelationCorruptor::Membership(RelationCorruptor::Mutable(db, s)).clear();
  common::Status audit = db.AuditInvariants();
  ExpectViolation(audit, "Team");
  EXPECT_EQ(audit.message().find("Player"), std::string::npos);
}

}  // namespace
}  // namespace qoco::relational

namespace qoco::query {

// Friend of IncrementalView / IncrementalUnionView (incremental_view.h):
// reaches the cached EvalResult to seed maintenance-bug lookalikes.
struct IncrementalViewCorruptor {
  static EvalResult& Result(IncrementalView& view) { return view.result_; }
  static std::vector<IncrementalView>& Views(IncrementalUnionView& view) {
    return view.views_;
  }
};

namespace {

using relational::Database;
using relational::Fact;
using relational::Tuple;
using relational::Value;

class IncrementalViewAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.AddRelation("R", {"a", "b"});
    s_ = *catalog_.AddRelation("S", {"c"});
    db_ = std::make_unique<Database>(&catalog_);
    ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("y")}}).ok());
    ASSERT_TRUE(db_->Insert({r_, {Value("w"), Value("z")}}).ok());
    ASSERT_TRUE(db_->Insert({s_, {Value("y")}}).ok());
    ASSERT_TRUE(db_->Insert({s_, {Value("z")}}).ok());
  }

  CQuery Parse(const std::string& text) {
    auto q = ParseQuery(text, catalog_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  void ExpectViolation(const common::Status& s, const std::string& needle) {
    ASSERT_FALSE(s.ok()) << "audit passed on a corrupted view";
    EXPECT_NE(s.message().find(needle), std::string::npos)
        << "audit message does not mention \"" << needle
        << "\":\n" << s.message();
  }

  relational::Catalog catalog_;
  relational::RelationId r_ = relational::kInvalidRelation;
  relational::RelationId s_ = relational::kInvalidRelation;
  std::unique_ptr<Database> db_;
};

TEST_F(IncrementalViewAuditTest, CleanViewPassesAfterDeltas) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  ASSERT_EQ(view.result().size(), 2u);
  EXPECT_TRUE(view.AuditInvariants().ok());

  Fact f{s_, {Value("y")}};
  ASSERT_TRUE(db_->Erase(f).ok());
  view.OnErase(f);
  ASSERT_TRUE(db_->Insert(f).ok());
  view.OnInsert(f);
  common::Status audit = view.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST_F(IncrementalViewAuditTest, DetectsDroppedAnswer) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  EvalResult& cached = IncrementalViewCorruptor::Result(view);
  ASSERT_TRUE(cached.Remove(Tuple{Value("w")}));
  ExpectViolation(view.AuditInvariants(), "is missing from the view");
}

TEST_F(IncrementalViewAuditTest, DetectsAnswerThatSurvivedGcEmpty) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  EvalResult& cached = IncrementalViewCorruptor::Result(view);
  cached.mutable_answers()[0].witnesses.clear();
  ExpectViolation(view.AuditInvariants(), "has no witnesses");
}

TEST_F(IncrementalViewAuditTest, DetectsCachedAssignment) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  EvalResult& cached = IncrementalViewCorruptor::Result(view);
  cached.mutable_answers()[0].assignments.push_back(
      Assignment(view.query().num_vars(), &db_->dict()));
  ExpectViolation(view.AuditInvariants(), "caches 1 assignments");
}

TEST_F(IncrementalViewAuditTest, DetectsPhantomWitnessOverAbsentFact) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  EvalResult& cached = IncrementalViewCorruptor::Result(view);
  provenance::Witness phantom(
      std::vector<Fact>{Fact{s_, {Value("never-inserted")}}}, &db_->dict());
  cached.mutable_answers()[0].witnesses.push_back(std::move(phantom));
  ExpectViolation(view.AuditInvariants(), "absent fact");
}

TEST_F(IncrementalViewAuditTest, DetectsStaleCachedAnswer) {
  IncrementalView view(Parse("(a) :- R(a, b), S(b)."), db_.get());
  // Mutate the database without notifying the view: the semantic pass must
  // notice the cached result no longer matches a from-scratch evaluation.
  ASSERT_TRUE(db_->Erase({s_, {Value("z")}}).ok());
  ExpectViolation(view.AuditInvariants(),
                  "not produced by from-scratch evaluation");
}

TEST_F(IncrementalViewAuditTest, UnionAuditNamesTheCorruptedDisjunct) {
  auto u = ParseUnionQuery("(a) :- R(a, b); (a) :- S(a).", catalog_);
  ASSERT_TRUE(u.ok());
  IncrementalUnionView view(*u, db_.get());
  EXPECT_TRUE(view.AuditInvariants().ok());

  std::vector<IncrementalView>& views = IncrementalViewCorruptor::Views(view);
  ASSERT_EQ(views.size(), 2u);
  EvalResult& cached = IncrementalViewCorruptor::Result(views[1]);
  ASSERT_FALSE(cached.mutable_answers().empty());
  cached.mutable_answers()[0].witnesses.clear();
  common::Status audit = view.AuditInvariants();
  ExpectViolation(audit, "disjunct 1");
  EXPECT_EQ(audit.message().find("disjunct 0"), std::string::npos);
}

}  // namespace
}  // namespace qoco::query

namespace qoco::hittingset {
namespace {

Instance SmallInstance() {
  Instance instance;
  instance.num_elements = 5;
  instance.sets = {{0, 1}, {1, 2}, {3}, {1, 3, 4}};
  return instance;
}

TEST(AuditHittingSetTest, AcceptsValidHittingSets) {
  Instance instance = SmallInstance();
  EXPECT_TRUE(AuditHittingSet(instance, {1, 3}).ok());
  EXPECT_TRUE(AuditHittingSet(instance, {0, 2, 3}).ok());
  // The empty set hits an instance with no sets.
  EXPECT_TRUE(AuditHittingSet(Instance{}, {}).ok());
}

TEST(AuditHittingSetTest, DetectsUnhitSet) {
  common::Status s = AuditHittingSet(SmallInstance(), {1});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("is not hit"), std::string::npos) << s.message();
}

TEST(AuditHittingSetTest, DetectsDuplicateElements) {
  common::Status s = AuditHittingSet(SmallInstance(), {1, 3, 1});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("appears more than once"), std::string::npos)
      << s.message();
}

TEST(AuditHittingSetTest, DetectsOutOfUniverseElements) {
  common::Status s = AuditHittingSet(SmallInstance(), {1, 3, 7});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("outside the universe"), std::string::npos)
      << s.message();
}

TEST(AuditHittingSetTest, SolversPassTheirOwnAuditOnRandomInstances) {
  common::Rng rng(404);
  for (int round = 0; round < 50; ++round) {
    Instance instance;
    instance.num_elements = 2 + rng.Index(8);
    size_t num_sets = 1 + rng.Index(6);
    for (size_t i = 0; i < num_sets; ++i) {
      std::vector<int> set;
      size_t size = 1 + rng.Index(3);
      for (size_t j = 0; j < size; ++j) {
        int e = static_cast<int>(rng.Index(instance.num_elements));
        if (std::find(set.begin(), set.end(), e) == set.end()) {
          set.push_back(e);
        }
      }
      instance.sets.push_back(std::move(set));
    }
    common::Status greedy = AuditHittingSet(instance, GreedyHittingSet(instance));
    EXPECT_TRUE(greedy.ok()) << greedy.ToString();
    common::Status exact =
        AuditHittingSet(instance, ExactMinimumHittingSet(instance));
    EXPECT_TRUE(exact.ok()) << exact.ToString();
  }
}

}  // namespace
}  // namespace qoco::hittingset
