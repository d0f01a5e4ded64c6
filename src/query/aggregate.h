#ifndef QOCO_QUERY_AGGREGATE_H_
#define QOCO_QUERY_AGGREGATE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/query/evaluator.h"
#include "src/query/query.h"
#include "src/relational/database.h"

namespace qoco::query {

/// A COUNT-based aggregate view (the paper's Section 9 "queries with
/// aggregates" future work, in restricted form):
///
///   SELECT g FROM base GROUP BY g HAVING COUNT(DISTINCT c) <cmp> k
///
/// where the base conjunctive query's head is the concatenation of the
/// group-by columns g and the counted columns c. For example "European
/// teams that won at least two finals" is the base query
/// (x, d) :- Games(d, x, y, 'Final', u), Teams(x, 'EU') grouped by x with
/// COUNT(DISTINCT d) >= 2 — the aggregate form of the paper's Q1, which
/// the CQ encoding can only express for a fixed threshold via self-joins.
class AggregateQuery {
 public:
  enum class Cmp { kAtLeast, kAtMost };

  /// Builds the aggregate. `group_by_arity` is the number of leading head
  /// positions that form the group key; the remaining positions are the
  /// counted sub-tuple (must be at least one of each). kAtLeast requires
  /// threshold >= 1.
  static common::Result<AggregateQuery> Make(CQuery base,
                                             size_t group_by_arity, Cmp cmp,
                                             size_t threshold);

  const CQuery& base() const { return base_; }
  size_t group_by_arity() const { return group_by_arity_; }
  Cmp cmp() const { return cmp_; }
  size_t threshold() const { return threshold_; }

  /// True iff `count` satisfies the HAVING comparison.
  bool Satisfies(size_t count) const {
    return cmp_ == Cmp::kAtLeast ? count >= threshold_
                                 : count <= threshold_;
  }

  /// Splits a base answer into (group key, counted unit).
  relational::Tuple GroupOf(const relational::Tuple& base_answer) const {
    return relational::Tuple(base_answer.begin(),
                             base_answer.begin() + group_by_arity_);
  }
  relational::Tuple UnitOf(const relational::Tuple& base_answer) const {
    return relational::Tuple(base_answer.begin() + group_by_arity_,
                             base_answer.end());
  }

  /// The base query with the group-by columns pinned to `group` (the
  /// aggregate analogue of Q|t): its answers over a database are the
  /// group's units.
  common::Result<CQuery> BaseForGroup(const relational::Tuple& group) const;

  std::string ToString(const relational::Catalog& catalog) const;

 private:
  CQuery base_;
  size_t group_by_arity_ = 0;
  Cmp cmp_ = Cmp::kAtLeast;
  size_t threshold_ = 0;
};

/// One group of the aggregate result.
struct AggregateGroup {
  relational::Tuple key;
  /// Distinct counted units contributing to the group, sorted.
  std::vector<relational::Tuple> units;
  /// units.size(), the COUNT(DISTINCT ...) value.
  size_t count() const { return units.size(); }
};

/// Every group of `q` regardless of the HAVING filter, sorted by key, from
/// `base`, the sorted answers of q.base() (an evaluation's AnswerTuples or
/// a maintained IncrementalView's).
std::vector<AggregateGroup> GroupAnswers(
    const AggregateQuery& q, const std::vector<relational::Tuple>& base);

/// Evaluates an aggregate query. Only groups satisfying the HAVING
/// comparison are answers; EvaluateAllGroups also exposes the rest.
class AggregateEvaluator {
 public:
  explicit AggregateEvaluator(const relational::Database* db) : db_(db) {}

  /// Qualifying groups, sorted by key.
  std::vector<AggregateGroup> Evaluate(const AggregateQuery& q) const;

  /// All groups regardless of the HAVING filter (needed by the cleaner to
  /// see near-threshold groups), sorted by key.
  std::vector<AggregateGroup> EvaluateAllGroups(const AggregateQuery& q) const;

  /// Answer tuples (group keys) of the qualifying groups.
  std::vector<relational::Tuple> AnswerTuples(const AggregateQuery& q) const;

 private:
  const relational::Database* db_;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_AGGREGATE_H_
