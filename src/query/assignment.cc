#include "src/query/assignment.h"

#include <algorithm>

namespace qoco::query {

using relational::kAbsentConstant;
using relational::kInvalidId;
using relational::ValueId;

size_t Assignment::NumBound() const {
  size_t count = 0;
  for (ValueId slot : slots_) {
    if (slot != kInvalidId) ++count;
  }
  return count;
}

std::optional<relational::Value> Assignment::Resolve(const Term& term) const {
  if (term.is_constant()) return term.constant();
  ValueId slot = slots_[static_cast<size_t>(term.var())];
  if (slot == kInvalidId) return std::nullopt;
  return dict_->Materialize(slot);
}

ValueId Assignment::ResolveId(const Term& term) const {
  if (term.is_constant()) {
    std::optional<ValueId> id = dict_->Find(term.constant());
    return id.has_value() ? *id : kAbsentConstant;
  }
  return slots_[static_cast<size_t>(term.var())];
}

bool Assignment::BindsAll(const std::vector<VarId>& vars) const {
  for (VarId v : vars) {
    if (!IsBound(v)) return false;
  }
  return true;
}

std::optional<relational::Fact> Assignment::GroundAtom(
    const Atom& atom) const {
  relational::Fact fact;
  fact.relation = atom.relation;
  fact.tuple.reserve(atom.terms.size());
  for (const Term& term : atom.terms) {
    std::optional<relational::Value> v = Resolve(term);
    if (!v.has_value()) return std::nullopt;
    fact.tuple.push_back(std::move(*v));
  }
  return fact;
}

std::optional<relational::IFact> Assignment::GroundAtomIds(
    const Atom& atom) const {
  relational::IFact fact;
  fact.relation = atom.relation;
  for (const Term& term : atom.terms) {
    ValueId id = ResolveId(term);
    if (id == kInvalidId || id == kAbsentConstant) return std::nullopt;
    fact.tuple.push_back(id);
  }
  return fact;
}

std::optional<bool> Assignment::CheckInequality(const Inequality& ineq) const {
  // Inequalities are ≠ only (query.h), so id comparison decides: equal ids
  // are equal values, and distinct ids are distinct values. A constant that
  // was never interned (kAbsentConstant) differs from every bound value.
  // Two different absent constants would share that id, so two different
  // constants are decided as Values first.
  if (ineq.DistinctConstants()) return true;
  ValueId lhs = ResolveId(ineq.lhs);
  ValueId rhs = ResolveId(ineq.rhs);
  if (lhs == kInvalidId || rhs == kInvalidId) return std::nullopt;
  return lhs != rhs;
}

std::optional<relational::Tuple> Assignment::ApplyHead(
    const std::vector<Term>& head) const {
  relational::Tuple tuple;
  tuple.reserve(head.size());
  for (const Term& term : head) {
    std::optional<relational::Value> v = Resolve(term);
    if (!v.has_value()) return std::nullopt;
    tuple.push_back(std::move(*v));
  }
  return tuple;
}

bool Assignment::CompatibleWith(const Assignment& other) const {
  size_t n = std::min(slots_.size(), other.slots_.size());
  for (size_t i = 0; i < n; ++i) {
    if (slots_[i] != kInvalidId && other.slots_[i] != kInvalidId &&
        slots_[i] != other.slots_[i]) {
      return false;
    }
  }
  return true;
}

void Assignment::MergeFrom(const Assignment& other) {
  for (size_t i = 0; i < other.slots_.size() && i < slots_.size(); ++i) {
    if (other.slots_[i] != kInvalidId) slots_[i] = other.slots_[i];
  }
}

std::string Assignment::ToString(const CQuery& query) const {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == kInvalidId) continue;
    if (!first) out += ", ";
    first = false;
    out += query.var_name(static_cast<VarId>(i)) + " -> " +
           dict_->ToString(slots_[i]);
  }
  out += "}";
  return out;
}

}  // namespace qoco::query
