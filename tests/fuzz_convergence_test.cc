// Randomized end-to-end property test: for random schemas, random
// conjunctive queries (with inequalities), random ground truths and random
// dirty instances, cleaning with a perfect oracle always converges to
// Q(D') = Q(DG), every edit is individually correct, and the database
// never moves away from the ground truth (Propositions 3.3/3.4). This is
// the strongest invariant the paper offers, exercised far outside the
// hand-built workloads.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/cleaning/cleaner.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"

namespace qoco {
namespace {

using relational::Catalog;
using relational::Database;
using relational::Fact;
using relational::RelationId;
using relational::Tuple;
using relational::Value;

struct RandomInstance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Database> truth;
  std::unique_ptr<Database> dirty;
  query::CQuery query;
};

/// Builds a random schema (1-3 relations, arity 1-3), a random query over
/// it (1-3 atoms, optional inequality), a random ground truth over a small
/// value domain, and a dirty instance derived by random flips.
RandomInstance MakeRandomInstance(common::Rng* rng) {
  RandomInstance out;
  out.catalog = std::make_unique<Catalog>();
  size_t num_relations = 1 + rng->Index(3);
  std::vector<RelationId> relations;
  std::vector<size_t> arities;
  for (size_t r = 0; r < num_relations; ++r) {
    size_t arity = 1 + rng->Index(3);
    std::vector<std::string> attrs;
    for (size_t a = 0; a < arity; ++a) {
      attrs.push_back("a");
      attrs.back() += std::to_string(a);
    }
    relations.push_back(
        out.catalog->AddRelation("R" + std::to_string(r), attrs).value());
    arities.push_back(arity);
  }

  const char* kDomain[] = {"u", "v", "w", "x"};
  auto random_tuple = [&](size_t arity) {
    Tuple t;
    for (size_t i = 0; i < arity; ++i) {
      t.push_back(Value(kDomain[rng->Index(4)]));
    }
    return t;
  };

  out.truth = std::make_unique<Database>(out.catalog.get());
  for (size_t r = 0; r < num_relations; ++r) {
    size_t rows = 2 + rng->Index(6);
    for (size_t i = 0; i < rows; ++i) {
      (void)out.truth->Insert(Fact{relations[r], random_tuple(arities[r])});
    }
  }

  // Dirty: drop some true facts, add some false ones.
  out.dirty = std::make_unique<Database>(*out.truth);
  for (const Fact& f : out.truth->AllFacts()) {
    if (rng->Chance(0.25)) (void)out.dirty->Erase(f);
  }
  for (size_t r = 0; r < num_relations; ++r) {
    size_t fakes = rng->Index(3);
    for (size_t i = 0; i < fakes; ++i) {
      Fact f{relations[r], random_tuple(arities[r])};
      if (!out.truth->Contains(f)) (void)out.dirty->Insert(f);
    }
  }

  // Random query: 1-3 atoms over random relations, variables drawn from a
  // small pool (sharing creates joins), occasional constants, head = one
  // or two body variables, optional inequality between two body vars.
  while (true) {
    size_t num_atoms = 1 + rng->Index(3);
    std::vector<std::string> var_names = {"p", "q", "r", "s"};
    std::vector<query::Atom> atoms;
    std::set<query::VarId> body_vars;
    for (size_t i = 0; i < num_atoms; ++i) {
      size_t rel = rng->Index(num_relations);
      query::Atom atom;
      atom.relation = relations[rel];
      for (size_t a = 0; a < arities[rel]; ++a) {
        if (rng->Chance(0.2)) {
          atom.terms.push_back(
              query::Term::MakeConst(Value(kDomain[rng->Index(4)])));
        } else {
          query::VarId v = static_cast<query::VarId>(rng->Index(4));
          atom.terms.push_back(query::Term::MakeVar(v));
          body_vars.insert(v);
        }
      }
      atoms.push_back(std::move(atom));
    }
    if (body_vars.empty()) continue;  // Need at least one head variable.
    std::vector<query::VarId> vars(body_vars.begin(), body_vars.end());
    std::vector<query::Term> head = {query::Term::MakeVar(
        vars[rng->Index(vars.size())])};
    if (vars.size() > 1 && rng->Chance(0.5)) {
      head.push_back(query::Term::MakeVar(vars[rng->Index(vars.size())]));
    }
    std::vector<query::Inequality> inequalities;
    if (vars.size() >= 2 && rng->Chance(0.4)) {
      inequalities.push_back(query::Inequality{
          query::Term::MakeVar(vars[0]), query::Term::MakeVar(vars[1])});
    }
    auto q = query::CQuery::Make(std::move(head), std::move(atoms),
                                 std::move(inequalities), var_names);
    if (q.ok()) {
      out.query = std::move(q).value();
      break;
    }
  }
  return out;
}

std::vector<Tuple> Result(const query::CQuery& q, const Database& db) {
  query::Evaluator eval(&db);
  return eval.Evaluate(q).AnswerTuples();
}

class FuzzConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzConvergenceTest, PerfectOracleAlwaysRepairsTheView) {
  common::Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    RandomInstance inst = MakeRandomInstance(&rng);
    crowd::SimulatedOracle oracle(inst.truth.get());
    crowd::CrowdPanel panel({&oracle}, crowd::PanelConfig{1});
    Database db = *inst.dirty;
    size_t initial_distance = db.Distance(*inst.truth);

    cleaning::CleanerConfig config;
    // Random splits exercise the most varied subquery shapes.
    config.insertion.strategy = round % 2 == 0
                                    ? cleaning::SplitStrategy::kProvenance
                                    : cleaning::SplitStrategy::kRandom;
    cleaning::QocoCleaner cleaner(inst.query, &db, &panel, config,
                                  common::Rng(GetParam() * 100 + round));
    auto stats = cleaner.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    // The cleaning session's edit traffic must leave the index maintenance
    // structurally sound.
    common::Status audit = db.AuditInvariants();
    ASSERT_TRUE(audit.ok()) << audit.ToString();

    EXPECT_EQ(Result(inst.query, db), Result(inst.query, *inst.truth))
        << "seed " << GetParam() << " round " << round << " query "
        << inst.query.ToString(*inst.catalog);

    for (const cleaning::Edit& e : stats->edits) {
      if (e.kind == cleaning::Edit::Kind::kDelete) {
        EXPECT_FALSE(inst.truth->Contains(e.fact));
      } else {
        EXPECT_TRUE(inst.truth->Contains(e.fact));
      }
    }
    EXPECT_LE(db.Distance(*inst.truth), initial_distance);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FuzzConvergenceTest,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace qoco
