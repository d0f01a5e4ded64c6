// Unit tests for the relational substrate: Value ordering/hashing, Relation
// set semantics and indexing, Catalog validation, and Database operations.

#include <gtest/gtest.h>

#include <optional>
#include <unordered_set>

#include "src/relational/database.h"
#include "src/relational/relation.h"
#include "src/relational/schema.h"
#include "src/relational/value.h"

namespace qoco::relational {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{4}).is_int());
  EXPECT_TRUE(Value(4).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(std::string("x")).is_string());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, EqualityIsTypeAware) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(1.0));   // int vs double
  EXPECT_NE(Value(1), Value("1"));   // int vs string
  EXPECT_NE(Value(), Value(0));      // null vs int
}

TEST(ValueTest, TotalOrder) {
  // Type tag first (null < int < double < string), then payload.
  EXPECT_LT(Value(), Value(0));
  EXPECT_LT(Value(5), Value(0.1));
  EXPECT_LT(Value(9.9), Value("a"));
  EXPECT_LT(Value(3), Value(4));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("GER").ToString(), "GER");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(ValueTest, HashDistinguishesTypes) {
  EXPECT_NE(Value(1).Hash(), Value("1").Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
}

TEST(RelationTest, SetSemantics) {
  ValueDictionary dict;
  Relation r(2, &dict);
  EXPECT_TRUE(r.Insert({Value(1), Value("a")}));
  EXPECT_FALSE(r.Insert({Value(1), Value("a")}));  // duplicate
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({Value(1), Value("a")}));
  EXPECT_FALSE(r.Contains({Value(1), Value("b")}));
}

TEST(RelationTest, EraseWithSwapRemoveKeepsMembershipConsistent) {
  ValueDictionary dict;
  Relation r(1, &dict);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(r.Insert({Value(i)}));
  ASSERT_TRUE(r.Erase({Value(0)}));   // head: swap-removed with tail
  ASSERT_TRUE(r.Erase({Value(9)}));
  ASSERT_FALSE(r.Erase({Value(9)}));  // already gone
  EXPECT_EQ(r.size(), 8u);
  for (int i = 1; i <= 8; ++i) {
    EXPECT_TRUE(r.Contains({Value(i)})) << i;
    EXPECT_TRUE(r.Erase({Value(i)}));
  }
  EXPECT_TRUE(r.empty());
}

/// Rows of `r` whose `column` holds `v`, probed through RowsWithId; a value
/// the dictionary never interned is in no row.
size_t RowsWith(const Relation& r, size_t column, const Value& v) {
  std::optional<ValueId> id = r.dict().Find(v);
  return id.has_value() ? r.RowsWithId(column, *id).size() : 0;
}

TEST(RelationTest, ColumnIndexFindsRows) {
  ValueDictionary dict;
  Relation r(2, &dict);
  ASSERT_TRUE(r.Insert({Value("a"), Value(1)}));
  ASSERT_TRUE(r.Insert({Value("a"), Value(2)}));
  ASSERT_TRUE(r.Insert({Value("b"), Value(3)}));
  EXPECT_EQ(RowsWith(r, 0, Value("a")), 2u);
  EXPECT_EQ(RowsWith(r, 0, Value("b")), 1u);
  EXPECT_EQ(RowsWith(r, 0, Value("zzz")), 0u);
  EXPECT_EQ(RowsWith(r, 1, Value(2)), 1u);
  // An interned value no row of the column holds.
  EXPECT_EQ(RowsWith(r, 1, Value("a")), 0u);
}

TEST(RelationTest, IndexInvalidatedByMutation) {
  ValueDictionary dict;
  Relation r(1, &dict);
  ASSERT_TRUE(r.Insert({Value("x")}));
  EXPECT_EQ(RowsWith(r, 0, Value("x")), 1u);
  ASSERT_TRUE(r.Erase({Value("x")}));
  EXPECT_EQ(RowsWith(r, 0, Value("x")), 0u);
  ASSERT_TRUE(r.Insert({Value("x")}));
  ASSERT_TRUE(r.Insert({Value("y")}));
  EXPECT_EQ(RowsWith(r, 0, Value("x")), 1u);
  EXPECT_EQ(RowsWith(r, 0, Value("y")), 1u);
}

TEST(RelationTest, ColumnDomainSortedDistinct) {
  ValueDictionary dict;
  Relation r(1, &dict);
  ASSERT_TRUE(r.Insert({Value("b")}));
  ASSERT_TRUE(r.Insert({Value("a")}));
  ASSERT_TRUE(r.Insert({Value("c")}));
  std::vector<Value> domain = r.ColumnDomain(0);
  ASSERT_EQ(domain.size(), 3u);
  EXPECT_EQ(domain[0], Value("a"));
  EXPECT_EQ(domain[2], Value("c"));
}

TEST(CatalogTest, RegistrationAndLookup) {
  Catalog catalog;
  auto id = catalog.AddRelation("R", {"a", "b"});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(catalog.IsValid(*id));
  EXPECT_EQ(catalog.relation_name(*id), "R");
  EXPECT_EQ(catalog.schema(*id).arity(), 2u);
  auto found = catalog.FindRelation("R");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *id);
  EXPECT_FALSE(catalog.FindRelation("S").ok());
}

TEST(CatalogTest, RejectsBadSchemas) {
  Catalog catalog;
  EXPECT_EQ(catalog.AddRelation("", {"a"}).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.AddRelation("R", {}).status().code(),
            common::StatusCode::kInvalidArgument);
  ASSERT_TRUE(catalog.AddRelation("R", {"a"}).ok());
  EXPECT_EQ(catalog.AddRelation("R", {"b"}).status().code(),
            common::StatusCode::kAlreadyExists);
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.AddRelation("R", {"x", "y"});
    s_ = *catalog_.AddRelation("S", {"z"});
    db_ = std::make_unique<Database>(&catalog_);
  }

  Catalog catalog_;
  RelationId r_ = kInvalidRelation;
  RelationId s_ = kInvalidRelation;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, InsertEraseContains) {
  Fact f{r_, {Value(1), Value(2)}};
  auto inserted = db_->Insert(f);
  ASSERT_TRUE(inserted.ok());
  EXPECT_TRUE(*inserted);
  EXPECT_TRUE(db_->Contains(f));
  auto again = db_->Insert(f);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);  // idempotent
  auto erased = db_->Erase(f);
  ASSERT_TRUE(erased.ok());
  EXPECT_TRUE(*erased);
  EXPECT_FALSE(db_->Contains(f));
}

TEST_F(DatabaseTest, RejectsArityMismatchAndBadRelation) {
  EXPECT_FALSE(db_->Insert(Fact{r_, {Value(1)}}).ok());
  EXPECT_FALSE(db_->Insert(Fact{99, {Value(1)}}).ok());
  EXPECT_FALSE(db_->Erase(Fact{kInvalidRelation, {Value(1)}}).ok());
}

TEST_F(DatabaseTest, DistanceIsSymmetricDifference) {
  Database other(&catalog_);
  ASSERT_TRUE(db_->Insert(Fact{r_, {Value(1), Value(2)}}).ok());
  ASSERT_TRUE(db_->Insert(Fact{s_, {Value("only-mine")}}).ok());
  ASSERT_TRUE(other.Insert(Fact{r_, {Value(1), Value(2)}}).ok());
  ASSERT_TRUE(other.Insert(Fact{s_, {Value("only-theirs")}}).ok());
  ASSERT_TRUE(other.Insert(Fact{s_, {Value("another")}}).ok());
  EXPECT_EQ(db_->Distance(other), 3u);
  EXPECT_EQ(other.Distance(*db_), 3u);
  EXPECT_EQ(db_->Distance(*db_), 0u);
}

TEST_F(DatabaseTest, AllFactsAndTotal) {
  ASSERT_TRUE(db_->Insert(Fact{r_, {Value(1), Value(2)}}).ok());
  ASSERT_TRUE(db_->Insert(Fact{s_, {Value("v")}}).ok());
  EXPECT_EQ(db_->TotalFacts(), 2u);
  std::vector<Fact> facts = db_->AllFacts();
  EXPECT_EQ(facts.size(), 2u);
}

TEST_F(DatabaseTest, FactToString) {
  EXPECT_EQ(db_->FactToString(Fact{r_, {Value(1), Value("a")}}), "R(1, a)");
}

TEST_F(DatabaseTest, CopyIsDeep) {
  auto fact = [&](const char* v) { return Fact{s_, {Value(v)}}; };
  for (const char* v : {"u", "v", "w"}) ASSERT_TRUE(db_->Insert(fact(v)).ok());
  Database copy = *db_;

  // Edits to the copy stay out of the original: an erase from the middle
  // (which moves the last row into the hole) and an insert.
  ASSERT_TRUE(copy.Erase(fact("u")).ok());
  ASSERT_TRUE(copy.Insert(fact("x")).ok());
  EXPECT_TRUE(db_->Contains(fact("u")));
  EXPECT_FALSE(db_->Contains(fact("x")));

  // Edits to the original stay out of the copy.
  ASSERT_TRUE(db_->Erase(fact("w")).ok());
  ASSERT_TRUE(db_->Insert(fact("y")).ok());
  EXPECT_TRUE(copy.Contains(fact("w")));
  EXPECT_FALSE(copy.Contains(fact("y")));

  EXPECT_EQ(db_->AllFacts(),
            (std::vector<Fact>{fact("u"), fact("v"), fact("y")}));
  EXPECT_EQ(copy.AllFacts(),
            (std::vector<Fact>{fact("w"), fact("v"), fact("x")}));
  EXPECT_TRUE(db_->AuditInvariants().ok());
  EXPECT_TRUE(copy.AuditInvariants().ok());
}

TEST(FactTest, OrderingAndHash) {
  Fact a{0, {Value(1)}};
  Fact b{0, {Value(2)}};
  Fact c{1, {Value(1)}};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  std::unordered_set<Fact, FactHash> set{a, b, c};
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(a));
}

}  // namespace
}  // namespace qoco::relational
