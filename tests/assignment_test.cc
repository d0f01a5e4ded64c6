// Unit tests for (partial) assignments: binding, resolution, grounding,
// inequality evaluation, compatibility and merging.

#include "src/query/assignment.h"

#include <gtest/gtest.h>

#include "src/query/parser.h"
#include "src/relational/schema.h"

namespace qoco::query {
namespace {

// GCC 12 misdiagnoses the std::variant inside relational::Value temporaries
// moved into Assignment bindings (-Wmaybe-uninitialized, GCC PR105593);
// suppressed for this TU only so the warning stays live elsewhere.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

using relational::Value;

class AssignmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("R", {"a", "b"}).ok());
    auto q = ParseQuery("(x, y) :- R(x, y), x != y, x != 'c'.", catalog_);
    ASSERT_TRUE(q.ok());
    q_ = std::make_unique<CQuery>(std::move(q).value());
  }

  relational::ValueDictionary* dict() { return &catalog_.dict(); }

  relational::Catalog catalog_;
  std::unique_ptr<CQuery> q_;
};

TEST_F(AssignmentTest, BindUnbindAndCount) {
  Assignment a(q_->num_vars(), dict());
  EXPECT_EQ(a.NumBound(), 0u);
  EXPECT_FALSE(a.IsBound(0));
  a.Bind(0, Value("v"));
  EXPECT_TRUE(a.IsBound(0));
  EXPECT_EQ(a.ValueOf(0), Value("v"));
  EXPECT_EQ(a.NumBound(), 1u);
  a.Unbind(0);
  EXPECT_FALSE(a.IsBound(0));
  EXPECT_EQ(a.NumBound(), 0u);
}

TEST_F(AssignmentTest, ResolveTerms) {
  Assignment a(q_->num_vars(), dict());
  EXPECT_EQ(*a.Resolve(Term::MakeConst(Value(5))), Value(5));
  EXPECT_FALSE(a.Resolve(Term::MakeVar(0)).has_value());
  a.Bind(0, Value("v"));
  EXPECT_EQ(*a.Resolve(Term::MakeVar(0)), Value("v"));
}

TEST_F(AssignmentTest, GroundAtomRequiresAllTerms) {
  Assignment a(q_->num_vars(), dict());
  a.Bind(0, Value("p"));
  EXPECT_FALSE(a.GroundAtom(q_->atoms()[0]).has_value());
  a.Bind(1, Value("q"));
  auto fact = a.GroundAtom(q_->atoms()[0]);
  ASSERT_TRUE(fact.has_value());
  EXPECT_EQ(fact->tuple, (relational::Tuple{Value("p"), Value("q")}));
}

TEST_F(AssignmentTest, InequalityThreeValued) {
  Assignment a(q_->num_vars(), dict());
  const Inequality& var_var = q_->inequalities()[0];   // x != y
  const Inequality& var_const = q_->inequalities()[1];  // x != 'c'
  EXPECT_FALSE(a.CheckInequality(var_var).has_value());
  a.Bind(0, Value("c"));
  EXPECT_FALSE(a.CheckInequality(var_var).has_value());  // y unbound
  EXPECT_EQ(a.CheckInequality(var_const), std::optional<bool>(false));
  a.Bind(1, Value("d"));
  EXPECT_EQ(a.CheckInequality(var_var), std::optional<bool>(true));
  // Two constants decide without a binding, even when neither is interned
  // (both would resolve to the one absent-constant id).
  const Inequality distinct{Term::MakeConst(Value("never1")),
                            Term::MakeConst(Value("never2"))};
  const Inequality same{Term::MakeConst(Value("never1")),
                        Term::MakeConst(Value("never1"))};
  EXPECT_EQ(a.CheckInequality(distinct), std::optional<bool>(true));
  EXPECT_EQ(a.CheckInequality(same), std::optional<bool>(false));
}

TEST_F(AssignmentTest, ApplyHead) {
  Assignment a(q_->num_vars(), dict());
  EXPECT_FALSE(a.ApplyHead(q_->head()).has_value());
  a.Bind(0, Value("p"));
  a.Bind(1, Value("q"));
  auto head = a.ApplyHead(q_->head());
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(*head, (relational::Tuple{Value("p"), Value("q")}));
}

TEST_F(AssignmentTest, BindsAll) {
  Assignment a(q_->num_vars(), dict());
  EXPECT_FALSE(a.BindsAll(q_->BodyVars()));
  a.Bind(0, Value("p"));
  a.Bind(1, Value("q"));
  EXPECT_TRUE(a.BindsAll(q_->BodyVars()));
  EXPECT_TRUE(a.BindsAll({}));
}

TEST_F(AssignmentTest, CompatibilityAndMerge) {
  Assignment a(3, dict());
  Assignment b(3, dict());
  a.Bind(0, Value(1));
  b.Bind(1, Value(2));
  EXPECT_TRUE(a.CompatibleWith(b));
  b.Bind(0, Value(1));
  EXPECT_TRUE(a.CompatibleWith(b));
  b.Bind(0, Value(9));
  EXPECT_FALSE(a.CompatibleWith(b));

  Assignment merged(3, dict());
  merged.MergeFrom(a);
  Assignment c(3, dict());
  c.Bind(2, Value(3));
  merged.MergeFrom(c);
  EXPECT_TRUE(merged.IsBound(0));
  EXPECT_TRUE(merged.IsBound(2));
  EXPECT_FALSE(merged.IsBound(1));
}

TEST_F(AssignmentTest, CompatibilityWithDifferentSizes) {
  Assignment narrow(1, dict());
  Assignment wide(4, dict());
  narrow.Bind(0, Value("x"));
  wide.Bind(0, Value("x"));
  wide.Bind(3, Value("z"));
  EXPECT_TRUE(narrow.CompatibleWith(wide));
  EXPECT_TRUE(wide.CompatibleWith(narrow));
  wide.Bind(0, Value("other"));
  EXPECT_FALSE(narrow.CompatibleWith(wide));
}

TEST_F(AssignmentTest, ToStringShowsBoundVarsByName) {
  Assignment a(q_->num_vars(), dict());
  a.Bind(0, Value("GER"));
  std::string text = a.ToString(*q_);
  EXPECT_NE(text.find("x -> GER"), std::string::npos);
  EXPECT_EQ(text.find("y"), std::string::npos);
}

TEST_F(AssignmentTest, Equality) {
  Assignment a(2, dict());
  Assignment b(2, dict());
  EXPECT_EQ(a, b);
  a.Bind(0, Value(1));
  EXPECT_FALSE(a == b);
  b.Bind(0, Value(1));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace qoco::query
