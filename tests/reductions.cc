#include "tests/reductions.h"

#include <string>

namespace qoco::cleaning {

namespace {

using relational::Fact;
using relational::RelationId;
using relational::Tuple;
using relational::Value;

const char kDistinguished[] = "d";

}  // namespace

// GCC 12 misdiagnoses the std::variant inside relational::Value temporaries
// that are moved into tuples below (-Wmaybe-uninitialized, GCC PR105593).
// Targeted suppression so the warning stays live for the rest of the tree.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

common::Result<ReductionInstance> BuildDeletionHardnessInstance(
    const hittingset::Instance& instance) {
  size_t n = instance.num_elements;
  ReductionInstance out;
  out.catalog = std::make_unique<relational::Catalog>();

  // Unary relations R_i(X_i), one per universe element.
  std::vector<RelationId> unary(n);
  for (size_t i = 0; i < n; ++i) {
    QOCO_ASSIGN_OR_RETURN(
        unary[i],
        out.catalog->AddRelation("R" + std::to_string(i), {"x"}));
  }
  // The wide relation R(Z, A, X_1, ..., X_n) holding characteristic
  // vectors of the sets.
  std::vector<std::string> wide_attrs = {"z", "a"};
  for (size_t i = 0; i < n; ++i) wide_attrs.push_back("x" + std::to_string(i));
  QOCO_ASSIGN_OR_RETURN(RelationId wide,
                        out.catalog->AddRelation("R", wide_attrs));

  out.dirty = std::make_unique<relational::Database>(out.catalog.get());
  out.ground_truth =
      std::make_unique<relational::Database>(out.catalog.get());

  for (size_t i = 0; i < n; ++i) {
    Tuple element_row;
    element_row.push_back(Value("u" + std::to_string(i)));
    Tuple distinguished_row;
    distinguished_row.push_back(Value(kDistinguished));
    QOCO_RETURN_NOT_OK(
        out.dirty->Insert(Fact{unary[i], element_row}).status());
    QOCO_RETURN_NOT_OK(
        out.dirty->Insert(Fact{unary[i], distinguished_row}).status());
    // DG contains only R_i(d).
    QOCO_RETURN_NOT_OK(
        out.ground_truth->Insert(Fact{unary[i], distinguished_row}).status());
  }
  for (size_t j = 0; j < instance.sets.size(); ++j) {
    Tuple row;
    row.push_back(Value(kDistinguished));
    row.push_back(Value("S" + std::to_string(j)));
    std::vector<bool> member(n, false);
    for (int e : instance.sets[j]) member[static_cast<size_t>(e)] = true;
    for (size_t i = 0; i < n; ++i) {
      row.push_back(member[i] ? Value("u" + std::to_string(i))
                              : Value(kDistinguished));
    }
    QOCO_RETURN_NOT_OK(out.dirty->Insert(Fact{wide, row}).status());
  }

  // Q: (z) :- R(z, y, w_0, ..., w_{n-1}), R_0(w_0), ..., R_{n-1}(w_{n-1}).
  std::vector<std::string> var_names = {"z", "y"};
  std::vector<query::Term> wide_terms = {query::Term::MakeVar(0),
                                         query::Term::MakeVar(1)};
  std::vector<query::Atom> atoms;
  for (size_t i = 0; i < n; ++i) {
    query::VarId w = static_cast<query::VarId>(var_names.size());
    var_names.push_back("w" + std::to_string(i));
    wide_terms.push_back(query::Term::MakeVar(w));
  }
  atoms.push_back(query::Atom{wide, wide_terms});
  for (size_t i = 0; i < n; ++i) {
    atoms.push_back(query::Atom{
        unary[i], {query::Term::MakeVar(static_cast<query::VarId>(2 + i))}});
  }
  QOCO_ASSIGN_OR_RETURN(
      out.query,
      query::CQuery::Make({query::Term::MakeVar(0)}, std::move(atoms), {},
                          std::move(var_names)));
  out.target = {Value(kDistinguished)};
  return out;
}

common::Result<ReductionInstance> BuildInsertionHardnessInstance(
    const std::vector<Clause3>& clauses, int num_vars) {
  if (clauses.empty() || num_vars <= 0) {
    return common::Status::InvalidArgument(
        "need at least one clause and one variable");
  }
  ReductionInstance out;
  out.catalog = std::make_unique<relational::Catalog>();

  std::vector<RelationId> clause_rel(clauses.size());
  for (size_t i = 0; i < clauses.size(); ++i) {
    QOCO_ASSIGN_OR_RETURN(
        clause_rel[i],
        out.catalog->AddRelation("C" + std::to_string(i),
                                 {"a", "l1", "l2", "l3"}));
  }

  out.dirty = std::make_unique<relational::Database>(out.catalog.get());
  out.ground_truth =
      std::make_unique<relational::Database>(out.catalog.get());

  // DG: the 7 satisfying boolean combinations per clause.
  for (size_t i = 0; i < clauses.size(); ++i) {
    const Clause3& clause = clauses[i];
    for (int bits = 0; bits < 8; ++bits) {
      bool v1 = (bits & 1) != 0;
      bool v2 = (bits & 2) != 0;
      bool v3 = (bits & 4) != 0;
      bool satisfied = (v1 == clause.positive[0]) ||
                       (v2 == clause.positive[1]) ||
                       (v3 == clause.positive[2]);
      if (!satisfied) continue;
      Tuple row = {Value(kDistinguished), Value(static_cast<int64_t>(v1)),
                   Value(static_cast<int64_t>(v2)),
                   Value(static_cast<int64_t>(v3))};
      QOCO_RETURN_NOT_OK(
          out.ground_truth->Insert(Fact{clause_rel[i], row}).status());
    }
  }

  // Q: (x) :- C_0(x, X_{i1}, X_{i2}, X_{i3}), ...; variable terms shared
  // across clauses by SAT-variable identity.
  std::vector<std::string> var_names = {"x"};
  for (int v = 0; v < num_vars; ++v) {
    var_names.push_back("X" + std::to_string(v));
  }
  std::vector<query::Atom> atoms;
  for (size_t i = 0; i < clauses.size(); ++i) {
    std::vector<query::Term> terms = {query::Term::MakeVar(0)};
    for (int j = 0; j < 3; ++j) {
      terms.push_back(
          query::Term::MakeVar(static_cast<query::VarId>(1 + clauses[i].var[j])));
    }
    atoms.push_back(query::Atom{clause_rel[i], std::move(terms)});
  }
  QOCO_ASSIGN_OR_RETURN(
      out.query,
      query::CQuery::Make({query::Term::MakeVar(0)}, std::move(atoms), {},
                          std::move(var_names)));
  out.target = {Value(kDistinguished)};
  return out;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace qoco::cleaning
