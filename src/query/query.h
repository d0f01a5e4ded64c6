#ifndef QOCO_QUERY_QUERY_H_
#define QOCO_QUERY_QUERY_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/query/term.h"

namespace qoco::query {

/// A relational atom R(l1, ..., lk) in a query body.
struct Atom {
  relational::RelationId relation = relational::kInvalidRelation;
  std::vector<Term> terms;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.relation == b.relation && a.terms == b.terms;
  }
};

/// An inequality atom lj != lk (the paper's E_i expressions). Either side
/// may be a variable or a constant: the grammar accepts two constants, and
/// InstantiateAnswer produces them from an inequality between two head
/// variables.
struct Inequality {
  Term lhs;
  Term rhs;

  /// True iff both sides are constants with different values, so the
  /// inequality holds under every binding. Id-space checks skip such an
  /// inequality: they resolve every constant missing from the dictionary
  /// to the one kAbsentConstant, so two different ones would compare equal.
  bool DistinctConstants() const {
    return lhs.is_constant() && rhs.is_constant() &&
           lhs.constant() != rhs.constant();
  }

  friend bool operator==(const Inequality& a, const Inequality& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
};

/// A conjunctive query with inequalities:
///
///   Ans(l̄0) :- R1(l̄1), ..., Rn(l̄n), E1, ..., Em
///
/// Variables are identified by dense VarIds [0, num_vars()); `var_names()`
/// maps them back to source names for display. Subqueries produced by
/// Split() share the parent's variable id space, so a (partial) assignment
/// for a subquery is directly a partial assignment for the parent query
/// (Definition 5.3 and the satisfiability machinery of Section 5 rely on
/// this).
class CQuery {
 public:
  CQuery() = default;

  /// Builds a query. Returns InvalidArgument if the query is unsafe (a head
  /// variable or inequality variable not occurring in any relational atom),
  /// if an inequality's lhs is a constant, or if a var id is out of range.
  static common::Result<CQuery> Make(std::vector<Term> head,
                                     std::vector<Atom> atoms,
                                     std::vector<Inequality> inequalities,
                                     std::vector<std::string> var_names);

  const std::vector<Term>& head() const { return head_; }
  const std::vector<Atom>& atoms() const { return atoms_; }
  const std::vector<Inequality>& inequalities() const {
    return inequalities_;
  }

  /// Size of the variable table (some ids may be unused in subqueries).
  size_t num_vars() const { return var_names_.size(); }
  const std::vector<std::string>& var_names() const { return var_names_; }
  const std::string& var_name(VarId v) const {
    return var_names_[static_cast<size_t>(v)];
  }

  /// Distinct variables occurring in relational atoms of the body, sorted.
  std::vector<VarId> BodyVars() const;

  /// Distinct variables occurring in atom `index`, sorted.
  std::vector<VarId> AtomVars(size_t index) const;

  /// Distinct variables occurring in the head, sorted.
  std::vector<VarId> HeadVars() const;

  /// The subquery induced by `atom_indices` (Definition 5.3): those atoms,
  /// every inequality whose variables all occur in them, and a projection-
  /// free head listing every variable of the kept atoms. The variable table
  /// is shared with this query.
  CQuery Subquery(const std::vector<size_t>& atom_indices) const;

  /// Embeds a (missing) answer `t` into the query: Q|t substitutes t's
  /// constants for the head variables throughout the body and re-heads the
  /// query with all remaining body variables (Section 5). Returns
  /// InvalidArgument if t's arity differs from the head's.
  common::Result<CQuery> InstantiateAnswer(const relational::Tuple& t) const;

  /// Renders the query in Datalog-ish syntax using `catalog` for relation
  /// names, e.g. "(x) :- Games(d1, x, y, 'Final', u1), ..., d1 != d2".
  std::string ToString(const relational::Catalog& catalog) const;

  /// A catalog-free structural key (relation ids, variable ids, constants
  /// encoded by relational::EncodeCsvField, with '\', '!' and ';' escaped)
  /// that identifies the query for caching. Structurally equal queries over
  /// the same catalog share a signature, and different ones never do: the
  /// key splits back into exactly its terms. Never starts with ';', and a
  /// bare ';' in it only ends an inequality.
  std::string Signature() const;

 private:
  std::vector<Term> head_;
  std::vector<Atom> atoms_;
  std::vector<Inequality> inequalities_;
  std::vector<std::string> var_names_;
};

/// A union of conjunctive queries with inequalities. The paper's results
/// extend to UCQs; disjuncts must use compatible head arities.
class UnionQuery {
 public:
  /// Builds a union. Returns InvalidArgument if empty or if head arities
  /// disagree.
  static common::Result<UnionQuery> Make(std::vector<CQuery> disjuncts);

  const std::vector<CQuery>& disjuncts() const { return disjuncts_; }
  size_t head_arity() const { return disjuncts_.front().head().size(); }

 private:
  std::vector<CQuery> disjuncts_;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_QUERY_H_
