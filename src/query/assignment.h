#ifndef QOCO_QUERY_ASSIGNMENT_H_
#define QOCO_QUERY_ASSIGNMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/query/query.h"
#include "src/query/term.h"
#include "src/relational/tuple.h"
#include "src/relational/value_dictionary.h"
#include "src/relational/value_id.h"

namespace qoco::query {

/// A (partial) assignment α : Var(Q) → C, stored in id space.
///
/// Slots are indexed by VarId over a query's variable table; each slot
/// holds a ValueId (kInvalidId = unbound) interned in the catalog's shared
/// ValueDictionary, so copying an assignment — the backtracking join does
/// it for every extension — moves a flat integer vector, and comparing two
/// assignments is an integer compare. The Value-typed accessors intern on
/// write (Bind; coordinator-side only, see ValueDictionary's threading
/// contract) and materialize on read; hot paths use the *Id twins, which
/// never touch the dictionary.
///
/// A *total* assignment for query Q binds every variable occurring in Q's
/// relational atoms; an assignment is *valid* w.r.t. a database D if every
/// ground body atom is a fact of D and every inequality holds (see
/// Evaluator); it is *satisfiable* if it extends to a valid total
/// assignment.
class Assignment {
 public:
  /// Constructs the empty assignment over `num_vars` variables whose
  /// values intern into `dict` (the owning catalog's dictionary; must
  /// outlive the assignment).
  Assignment(size_t num_vars, relational::ValueDictionary* dict)
      : slots_(num_vars, relational::kInvalidId), dict_(dict) {}

  size_t num_vars() const { return slots_.size(); }

  /// The dictionary this assignment's ids live in.
  relational::ValueDictionary* dict() const { return dict_; }

  bool IsBound(VarId v) const {
    return slots_[static_cast<size_t>(v)] != relational::kInvalidId;
  }

  /// The bound value, materialized. Precondition: IsBound(v).
  relational::Value ValueOf(VarId v) const {
    return dict_->Materialize(slots_[static_cast<size_t>(v)]);
  }

  /// The bound id. Precondition: IsBound(v) (else kInvalidId).
  relational::ValueId IdOf(VarId v) const {
    return slots_[static_cast<size_t>(v)];
  }

  /// Interns `value` and binds it (mutates the shared dictionary:
  /// coordinator-side only).
  void Bind(VarId v, const relational::Value& value) {
    slots_[static_cast<size_t>(v)] = dict_->Intern(value);
  }

  /// Binds an already-interned id (never touches the dictionary).
  void BindId(VarId v, relational::ValueId id) {
    slots_[static_cast<size_t>(v)] = id;
  }

  void Unbind(VarId v) {
    slots_[static_cast<size_t>(v)] = relational::kInvalidId;
  }

  /// Number of bound variables.
  size_t NumBound() const;

  /// Resolves a term: the constant itself, the bound value, or nullopt for
  /// an unbound variable. Materializing; boundary paths only.
  std::optional<relational::Value> Resolve(const Term& term) const;

  /// Resolves a term to an id without mutating the dictionary: a bound
  /// variable's id, kInvalidId for an unbound variable, and for constants
  /// the interned id or kAbsentConstant if the value was never interned
  /// (such a constant equals no stored value).
  relational::ValueId ResolveId(const Term& term) const;

  /// True if every variable in `vars` is bound.
  bool BindsAll(const std::vector<VarId>& vars) const;

  /// Grounds `atom` into a value fact if all its terms resolve, else
  /// nullopt. Materializing; boundary paths only.
  std::optional<relational::Fact> GroundAtom(const Atom& atom) const;

  /// Grounds `atom` into an id fact: nullopt if some variable is unbound
  /// or some constant was never interned (in which case the atom grounds
  /// to a fact of no database over this dictionary).
  std::optional<relational::IFact> GroundAtomIds(const Atom& atom) const;

  /// Evaluates an inequality under this assignment: true/false if both
  /// sides resolve, nullopt otherwise. Id compares (the paper's
  /// inequalities are ≠ only, and id equality is value equality), except
  /// between two constants, which compare as Values.
  std::optional<bool> CheckInequality(const Inequality& ineq) const;

  /// Applies the assignment to head terms, producing the answer tuple;
  /// nullopt if some head variable is unbound.
  std::optional<relational::Tuple> ApplyHead(
      const std::vector<Term>& head) const;

  /// True if this and `other` agree on every variable bound in both.
  bool CompatibleWith(const Assignment& other) const;

  /// Copies every binding of `other` into this assignment (later wins on
  /// conflict; use CompatibleWith first when that matters).
  void MergeFrom(const Assignment& other);

  /// Renders bound variables as "{x -> GER, d1 -> 13.07.14}".
  std::string ToString(const CQuery& query) const;

  /// Id equality is value equality: both sides intern into the same
  /// catalog-owned dictionary.
  friend bool operator==(const Assignment& a, const Assignment& b) {
    return a.slots_ == b.slots_;
  }

 private:
  std::vector<relational::ValueId> slots_;
  relational::ValueDictionary* dict_;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_ASSIGNMENT_H_
