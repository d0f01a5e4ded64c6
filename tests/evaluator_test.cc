// Unit and property tests for the query evaluator: joins, inequalities,
// partial-assignment extension, limits, witness deduplication, union
// queries, a randomized equivalence check against a brute-force reference
// evaluator, and the witness order (first occurrence over each answer's
// assignments) against a linear reference dedup.

#include "src/query/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/relational/database.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco::query {
namespace {

using relational::Database;
using relational::Fact;
using relational::Tuple;
using relational::Value;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.AddRelation("R", {"a", "b"});
    s_ = *catalog_.AddRelation("S", {"c"});
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
  std::unique_ptr<Database> db_;
};

TEST_F(EvaluatorTest, SimpleJoin) {
  ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("y")}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("z")}}).ok());
  ASSERT_TRUE(db_->Insert({s_, {Value("y")}}).ok());
  Evaluator eval(db_.get());
  CQuery q = Parse("(a) :- R(a, b), S(b).");
  EvalResult result = eval.Evaluate(q);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.answers()[0].tuple, Tuple{Value("x")});
}

TEST_F(EvaluatorTest, ConstantInAtomFilters) {
  ASSERT_TRUE(db_->Insert({r_, {Value("x"), Value("keep")}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("y"), Value("drop")}}).ok());
  Evaluator eval(db_.get());
  CQuery q = Parse("(a) :- R(a, 'keep').");
  EXPECT_TRUE(eval.Evaluate(q).ContainsAnswer(Tuple{Value("x")}));
  EXPECT_FALSE(eval.Evaluate(q).ContainsAnswer(Tuple{Value("y")}));
}

TEST_F(EvaluatorTest, RepeatedVariableInAtom) {
  ASSERT_TRUE(db_->Insert({r_, {Value("same"), Value("same")}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("a"), Value("b")}}).ok());
  Evaluator eval(db_.get());
  CQuery q = Parse("(a) :- R(a, a).");
  EvalResult result = eval.Evaluate(q);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.answers()[0].tuple, Tuple{Value("same")});
}

TEST_F(EvaluatorTest, VarVarInequality) {
  ASSERT_TRUE(db_->Insert({r_, {Value("a"), Value("a")}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("a"), Value("b")}}).ok());
  Evaluator eval(db_.get());
  CQuery q = Parse("(x, y) :- R(x, y), x != y.");
  EvalResult result = eval.Evaluate(q);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.answers()[0].tuple, (Tuple{Value("a"), Value("b")}));
}

TEST_F(EvaluatorTest, VarConstInequality) {
  ASSERT_TRUE(db_->Insert({s_, {Value("in")}}).ok());
  ASSERT_TRUE(db_->Insert({s_, {Value("out")}}).ok());
  Evaluator eval(db_.get());
  CQuery q = Parse("(x) :- S(x), x != 'out'.");
  EvalResult result = eval.Evaluate(q);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.answers()[0].tuple, Tuple{Value("in")});
}

TEST_F(EvaluatorTest, GroundFalseInequalityKillsQuery) {
  ASSERT_TRUE(db_->Insert({s_, {Value("v")}}).ok());
  // After instantiation an inequality can become ground-false.
  CQuery q = Parse("(x, y) :- S(x), S(y), x != y.");
  auto q_t = q.InstantiateAnswer({Value("v"), Value("v")});
  ASSERT_TRUE(q_t.ok());
  Evaluator eval(db_.get());
  EXPECT_TRUE(eval.Evaluate(*q_t).empty());
}

TEST_F(EvaluatorTest, FindExtensionsHonorsPartialAndLimit) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        db_->Insert({r_, {Value("k"), Value(std::to_string(i))}}).ok());
  }
  Evaluator eval(db_.get());
  CQuery q = Parse("(a, b) :- R(a, b).");
  Assignment partial(q.num_vars(), &db_->dict());
  partial.Bind(0, Value("k"));
  EXPECT_EQ(eval.FindExtensions(q, partial, 0).size(), 5u);
  EXPECT_EQ(eval.FindExtensions(q, partial, 2).size(), 2u);
  Assignment bad(q.num_vars(), &db_->dict());
  bad.Bind(0, Value("missing"));
  EXPECT_TRUE(eval.FindExtensions(q, bad, 0).empty());
  EXPECT_FALSE(eval.IsSatisfiable(q, bad));
  EXPECT_TRUE(eval.IsSatisfiable(q, partial));
}

TEST_F(EvaluatorTest, PartialAssignmentNarrowerThanQuerySpace) {
  ASSERT_TRUE(db_->Insert({r_, {Value("k"), Value("v")}}).ok());
  Evaluator eval(db_.get());
  CQuery q = Parse("(a, b) :- R(a, b).");
  // A partial over fewer vars is widened transparently.
  Assignment narrow(1, &db_->dict());
  narrow.Bind(0, Value("k"));
  EXPECT_EQ(eval.FindExtensions(q, narrow, 0).size(), 1u);
}

TEST_F(EvaluatorTest, WitnessDeduplication) {
  // Symmetric self-join: two assignments (d1/d2 swapped), one witness.
  ASSERT_TRUE(db_->Insert({r_, {Value("t"), Value("g1")}}).ok());
  ASSERT_TRUE(db_->Insert({r_, {Value("t"), Value("g2")}}).ok());
  Evaluator eval(db_.get());
  CQuery q = Parse("(x) :- R(x, d1), R(x, d2), d1 != d2.");
  EvalResult result = eval.Evaluate(q);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.answers()[0].assignments.size(), 2u);
  EXPECT_EQ(result.answers()[0].witnesses.size(), 1u);
  EXPECT_EQ(result.answers()[0].witnesses[0].size(), 2u);
}

TEST_F(EvaluatorTest, UnionQueryMergesAnswersAndWitnesses) {
  ASSERT_TRUE(db_->Insert({r_, {Value("both"), Value("x")}}).ok());
  ASSERT_TRUE(db_->Insert({s_, {Value("both")}}).ok());
  ASSERT_TRUE(db_->Insert({s_, {Value("only_s")}}).ok());
  Evaluator eval(db_.get());
  auto u = ParseUnionQuery("(a) :- R(a, b); (a) :- S(a).", catalog_);
  ASSERT_TRUE(u.ok());
  EvalResult result = eval.Evaluate(*u);
  EXPECT_EQ(result.size(), 2u);
  const AnswerInfo* both = result.Find(Tuple{Value("both")});
  ASSERT_NE(both, nullptr);
  EXPECT_EQ(both->witnesses.size(), 2u);  // one per disjunct
}

TEST_F(EvaluatorTest, EmptyRelationGivesEmptyResult) {
  Evaluator eval(db_.get());
  CQuery q = Parse("(a) :- R(a, b).");
  EXPECT_TRUE(eval.Evaluate(q).empty());
}

// ---------------------------------------------------------------------
// Property test: the index-backed backtracking evaluator agrees with a
// brute-force reference on random instances.
// ---------------------------------------------------------------------

/// Brute force: enumerate every mapping of query variables to the active
/// domain and collect the head tuples of valid assignments. Inequalities
/// compare materialized Values, independent of the id-space checks.
std::set<Tuple> BruteForce(const CQuery& q, const Database& db) {
  // Active domain.
  std::vector<Value> domain;
  {
    std::set<Value> values;
    for (const Fact& f : db.AllFacts()) {
      for (const Value& v : f.tuple) values.insert(v);
    }
    domain.assign(values.begin(), values.end());
  }
  std::vector<VarId> vars = q.BodyVars();
  std::set<Tuple> answers;
  std::vector<size_t> choice(vars.size(), 0);
  if (domain.empty()) return answers;
  while (true) {
    Assignment a(q.num_vars(), &db.dict());
    for (size_t i = 0; i < vars.size(); ++i) {
      a.Bind(vars[i], domain[choice[i]]);
    }
    bool valid = true;
    for (const Atom& atom : q.atoms()) {
      std::optional<Fact> fact = a.GroundAtom(atom);
      if (!fact.has_value() || !db.Contains(*fact)) {
        valid = false;
        break;
      }
    }
    if (valid) {
      for (const Inequality& ineq : q.inequalities()) {
        std::optional<Value> lhs = a.Resolve(ineq.lhs);
        std::optional<Value> rhs = a.Resolve(ineq.rhs);
        if (!lhs.has_value() || !rhs.has_value() || *lhs == *rhs) {
          valid = false;
          break;
        }
      }
    }
    if (valid) {
      std::optional<Tuple> head = a.ApplyHead(q.head());
      if (head.has_value()) answers.insert(*head);
    }
    // Advance the odometer.
    size_t pos = 0;
    while (pos < choice.size()) {
      if (++choice[pos] < domain.size()) break;
      choice[pos] = 0;
      ++pos;
    }
    if (pos == choice.size()) break;
  }
  return answers;
}

/// The reference witness order: a linear first-occurrence dedup of the
/// witnesses of `assignments`, in assignment order.
provenance::WitnessSet LinearWitnessDedup(
    const CQuery& q, const std::vector<Assignment>& assignments) {
  provenance::WitnessSet out;
  for (const Assignment& a : assignments) {
    provenance::Witness w = Evaluator::WitnessFor(q, a);
    if (std::find(out.begin(), out.end(), w) == out.end()) {
      out.push_back(std::move(w));
    }
  }
  return out;
}

/// Every answer's witness list equals the linear reference element by
/// element. Returns the number of answers whose assignments share a
/// witness (more assignments than witnesses), so callers can check that
/// the dedup was exercised.
size_t ExpectReferenceWitnessOrder(const CQuery& q, const EvalResult& result,
                                   const std::string& label) {
  size_t shared = 0;
  for (const AnswerInfo& info : result.answers()) {
    provenance::WitnessSet want = LinearWitnessDedup(q, info.assignments);
    EXPECT_EQ(info.witnesses.size(), want.size())
        << label << " answer " << relational::TupleToString(info.tuple);
    for (size_t i = 0; i < std::min(want.size(), info.witnesses.size());
         ++i) {
      EXPECT_TRUE(info.witnesses[i] == want[i])
          << label << " answer " << relational::TupleToString(info.tuple)
          << " witness " << i;
    }
    if (info.assignments.size() > info.witnesses.size()) ++shared;
  }
  return shared;
}

class EvaluatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorPropertyTest, MatchesBruteForceOnRandomInstances) {
  common::Rng rng(GetParam());
  relational::Catalog catalog;
  relational::RelationId r = *catalog.AddRelation("R", {"a", "b"});
  relational::RelationId s = *catalog.AddRelation("S", {"c"});
  Database db(&catalog);
  // Small random database over a 4-value domain.
  const char* kDomain[] = {"p", "q", "u", "v"};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert({r,
                           {Value(kDomain[rng.Index(4)]),
                            Value(kDomain[rng.Index(4)])}})
                    .status()
                    .ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.Insert({s, {Value(kDomain[rng.Index(4)])}}).status().ok());
  }

  const char* kQueries[] = {
      "(x) :- R(x, y).",
      "(x, z) :- R(x, y), R(y, z).",
      "(x) :- R(x, y), S(y), x != y.",
      "(x, y) :- R(x, y), R(y, x), x != y.",
      "(x) :- R(x, x), S(x).",
      "(y) :- R('p', y), y != 'q'.",
      // Two constants the database never stored: they share no id, so
      // only a Value compare decides them.
      "(x) :- R(x, y), 'w1' != 'w2'.",
      "(x) :- R(x, y), 'w1' != 'w1'.",
  };
  for (const char* text : kQueries) {
    auto q = ParseQuery(text, catalog);
    ASSERT_TRUE(q.ok()) << text;
    Evaluator eval(&db);
    EvalResult result = eval.Evaluate(*q);
    std::vector<Tuple> got = result.AnswerTuples();
    std::set<Tuple> want = BruteForce(*q, db);
    EXPECT_EQ(std::set<Tuple>(got.begin(), got.end()), want)
        << "query " << text << " seed " << GetParam();
    EXPECT_EQ(eval.IsSatisfiable(*q, Assignment(q->num_vars(), &db.dict())),
              !want.empty())
        << "query " << text << " seed " << GetParam();
    ExpectReferenceWitnessOrder(
        *q, result,
        std::string("query ") + text + " seed " + std::to_string(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, EvaluatorPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// The soccer queries over one dirty 1x instance: large witness sets (Q4's
// largest answer holds well over a hundred) and, in Q1, Q2 and Q4, answers
// whose assignments share a witness.
TEST(EvaluatorWitnessOrderTest, SoccerQueriesMatchLinearReference) {
  auto data = workload::MakeSoccerData(workload::SoccerParams{});
  ASSERT_TRUE(data.ok());
  auto dirty =
      workload::MakeDirty(*data->ground_truth, workload::NoiseParams{});
  ASSERT_TRUE(dirty.ok());
  Evaluator eval(&*dirty);
  for (size_t qi = 1; qi <= 5; ++qi) {
    auto q = workload::SoccerQuery(qi, *data->catalog);
    ASSERT_TRUE(q.ok());
    EvalResult result = eval.Evaluate(*q);
    EXPECT_FALSE(result.empty()) << "Q" << qi;
    std::string label = "Q";
    label += std::to_string(qi);
    const size_t shared = ExpectReferenceWitnessOrder(*q, result, label);
    if (qi == 1 || qi == 2 || qi == 4) {
      EXPECT_GT(shared, 0u) << "Q" << qi;
    }
  }
}

}  // namespace
}  // namespace qoco::query
