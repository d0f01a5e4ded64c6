#include "src/query/aggregate.h"

#include <optional>
#include <utility>

namespace qoco::query {

common::Result<AggregateQuery> AggregateQuery::Make(CQuery base,
                                                    size_t group_by_arity,
                                                    Cmp cmp,
                                                    size_t threshold) {
  if (group_by_arity == 0 || group_by_arity >= base.head().size()) {
    return common::Status::InvalidArgument(
        "the head must have at least one group-by and one counted column");
  }
  if (cmp == Cmp::kAtLeast && threshold == 0) {
    return common::Status::InvalidArgument(
        "COUNT >= 0 holds vacuously; use a positive threshold");
  }
  AggregateQuery q;
  q.base_ = std::move(base);
  q.group_by_arity_ = group_by_arity;
  q.cmp_ = cmp;
  q.threshold_ = threshold;
  return q;
}

common::Result<CQuery> AggregateQuery::BaseForGroup(
    const relational::Tuple& group) const {
  if (group.size() != group_by_arity_) {
    return common::Status::InvalidArgument("group key arity mismatch");
  }
  // Pin the group-by head positions by instantiating a full head tuple is
  // not possible (the counted columns are unknown), so substitute
  // manually: bind each group-by head variable to its key value and
  // re-head with the counted columns.
  std::vector<Term> new_head(base_.head().begin() + group_by_arity_,
                             base_.head().end());
  std::vector<Atom> atoms = base_.atoms();
  std::vector<Inequality> inequalities = base_.inequalities();
  // Build the substitution for group-by variables.
  std::vector<std::optional<relational::Value>> binding(base_.num_vars());
  for (size_t i = 0; i < group_by_arity_; ++i) {
    const Term& term = base_.head()[i];
    if (term.is_constant()) {
      if (term.constant() != group[i]) {
        return common::Status::InvalidArgument(
            "group key conflicts with constant head position");
      }
      continue;
    }
    VarId v = term.var();
    if (binding[static_cast<size_t>(v)].has_value() &&
        *binding[static_cast<size_t>(v)] != group[i]) {
      return common::Status::InvalidArgument(
          "group key binds a head variable to two values");
    }
    binding[static_cast<size_t>(v)] = group[i];
  }
  auto substitute = [&](Term& term) {
    if (term.is_variable() &&
        binding[static_cast<size_t>(term.var())].has_value()) {
      term = Term::MakeConst(*binding[static_cast<size_t>(term.var())]);
    }
  };
  for (Atom& atom : atoms) {
    for (Term& term : atom.terms) substitute(term);
  }
  for (Inequality& ineq : inequalities) {
    substitute(ineq.lhs);
    substitute(ineq.rhs);
  }
  for (Term& term : new_head) substitute(term);
  return CQuery::Make(std::move(new_head), std::move(atoms),
                      std::move(inequalities),
                      std::vector<std::string>(base_.var_names()));
}

std::string AggregateQuery::ToString(
    const relational::Catalog& catalog) const {
  std::string out = "GROUP BY first " + std::to_string(group_by_arity_) +
                    " head column(s) HAVING COUNT(DISTINCT rest) " +
                    (cmp_ == Cmp::kAtLeast ? ">= " : "<= ") +
                    std::to_string(threshold_) + " OVER " +
                    base_.ToString(catalog);
  return out;
}

std::vector<AggregateGroup> GroupAnswers(
    const AggregateQuery& q, const std::vector<relational::Tuple>& base) {
  // Base answers are sorted and distinct, and each is its group key
  // followed by its unit, so a group's units arrive together, distinct and
  // in order.
  std::vector<AggregateGroup> groups;
  for (const relational::Tuple& answer : base) {
    relational::Tuple key = q.GroupOf(answer);
    if (groups.empty() || groups.back().key != key) {
      groups.push_back(AggregateGroup{std::move(key), {}});
    }
    groups.back().units.push_back(q.UnitOf(answer));
  }
  return groups;
}

std::vector<AggregateGroup> AggregateEvaluator::EvaluateAllGroups(
    const AggregateQuery& q) const {
  return GroupAnswers(q, Evaluator(db_).Evaluate(q.base()).AnswerTuples());
}

std::vector<AggregateGroup> AggregateEvaluator::Evaluate(
    const AggregateQuery& q) const {
  std::vector<AggregateGroup> all = EvaluateAllGroups(q);
  std::erase_if(all, [&q](const AggregateGroup& g) {
    return !q.Satisfies(g.count());
  });
  return all;
}

std::vector<relational::Tuple> AggregateEvaluator::AnswerTuples(
    const AggregateQuery& q) const {
  std::vector<relational::Tuple> out;
  for (const AggregateGroup& g : Evaluate(q)) out.push_back(g.key);
  return out;
}

}  // namespace qoco::query
