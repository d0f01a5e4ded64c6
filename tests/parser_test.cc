// Unit tests for the Datalog-style query parser: accepted syntax,
// constants vs variables, inequalities, and rejection of malformed input.

#include "src/query/parser.h"

#include <gtest/gtest.h>

#include "src/relational/schema.h"

namespace qoco::query {
namespace {

using relational::Value;

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("Games",
                                     {"date", "w", "r", "stage", "res"})
                    .ok());
    ASSERT_TRUE(catalog_.AddRelation("Teams", {"c", "cont"}).ok());
  }

  relational::Catalog catalog_;
};

TEST_F(ParserTest, PaperQueryOne) {
  auto q = ParseQuery(
      "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
      "Teams(x, 'EU'), d1 != d2.",
      catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->atoms().size(), 3u);
  EXPECT_EQ(q->inequalities().size(), 1u);
  // Var(Q1) = {d1, x, y, u1, d2, z, u2}.
  EXPECT_EQ(q->num_vars(), 7u);
  EXPECT_EQ(q->head().size(), 1u);
}

TEST_F(ParserTest, OptionalHeadName) {
  EXPECT_TRUE(ParseQuery("ans(x) :- Teams(x, y).", catalog_).ok());
  EXPECT_TRUE(ParseQuery("(x) :- Teams(x, y).", catalog_).ok());
}

TEST_F(ParserTest, TrailingPeriodOptional) {
  EXPECT_TRUE(ParseQuery("(x) :- Teams(x, y)", catalog_).ok());
}

TEST_F(ParserTest, DoubleQuotedStrings) {
  auto q = ParseQuery("(x) :- Teams(x, \"EU\").", catalog_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].terms[1].constant(), Value("EU"));
}

TEST_F(ParserTest, NumericLiterals) {
  auto q = ParseQuery("(x) :- Teams(x, 42).", catalog_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].terms[1].constant(), Value(42));
  auto qd = ParseQuery("(x) :- Teams(x, 2.5).", catalog_);
  ASSERT_TRUE(qd.ok());
  EXPECT_EQ(qd->atoms()[0].terms[1].constant(), Value(2.5));
  auto qn = ParseQuery("(x) :- Teams(x, -3).", catalog_);
  ASSERT_TRUE(qn.ok());
  EXPECT_EQ(qn->atoms()[0].terms[1].constant(), Value(-3));
}

TEST_F(ParserTest, InequalityForms) {
  auto q = ParseQuery("(x) :- Teams(x, y), x != y, y <> 'EU', x != 7.",
                      catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->inequalities().size(), 3u);
  EXPECT_TRUE(q->inequalities()[0].rhs.is_variable());
  EXPECT_TRUE(q->inequalities()[1].rhs.is_constant());
  EXPECT_EQ(q->inequalities()[2].rhs.constant(), Value(7));
}

TEST_F(ParserTest, SameVariableSharedAcrossAtoms) {
  auto q = ParseQuery("(x) :- Teams(x, c), Games(d, x, y, s, u).", catalog_);
  ASSERT_TRUE(q.ok());
  // "x" interned once.
  EXPECT_EQ(q->atoms()[0].terms[0].var(), q->atoms()[1].terms[1].var());
}

TEST_F(ParserTest, RejectsUnknownRelation) {
  auto q = ParseQuery("(x) :- Nope(x).", catalog_);
  EXPECT_EQ(q.status().code(), common::StatusCode::kNotFound);
}

TEST_F(ParserTest, RejectsArityMismatch) {
  auto q = ParseQuery("(x) :- Teams(x).", catalog_);
  EXPECT_EQ(q.status().code(), common::StatusCode::kParseError);
}

TEST_F(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseQuery("", catalog_).ok());
  EXPECT_FALSE(ParseQuery("(x)", catalog_).ok());
  EXPECT_FALSE(ParseQuery("(x) : Teams(x, y).", catalog_).ok());
  EXPECT_FALSE(ParseQuery("(x) :- Teams(x, y) trailing", catalog_).ok());
  EXPECT_FALSE(ParseQuery("(x) :- Teams(x, 'open.", catalog_).ok());
  EXPECT_FALSE(ParseQuery("(x) :- Teams(x, y), x == y.", catalog_).ok());
}

TEST_F(ParserTest, RejectsUnsafeQuery) {
  // Head variable not in the body is rejected via CQuery::Make.
  EXPECT_FALSE(ParseQuery("(w) :- Teams(x, y).", catalog_).ok());
}

TEST_F(ParserTest, UnionQueryParsing) {
  auto u = ParseUnionQuery(
      "(x) :- Teams(x, 'EU'); (x) :- Teams(x, 'SA').", catalog_);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->disjuncts().size(), 2u);
  // A quoted ';' belongs to its constant; empty disjuncts are skipped.
  auto quoted = ParseUnionQuery(
      "(x) :- Teams(x, 'a;b'); ; (x) :- Teams(x, 'EU').", catalog_);
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  ASSERT_EQ(quoted->disjuncts().size(), 2u);
  EXPECT_EQ(quoted->disjuncts()[0].atoms()[0].terms[1].constant(),
            Value("a;b"));
}

TEST_F(ParserTest, UnionQueryRejectsMixedArity) {
  auto u = ParseUnionQuery(
      "(x) :- Teams(x, 'EU'); (x, y) :- Teams(x, y).", catalog_);
  EXPECT_FALSE(u.ok());
}

TEST_F(ParserTest, WhitespaceAndNewlinesTolerated) {
  auto q = ParseQuery(
      "( x )\n:-\n  Teams( x , y ) ,\n  x != y\n.", catalog_);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
}

}  // namespace
}  // namespace qoco::query
