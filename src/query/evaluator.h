#ifndef QOCO_QUERY_EVALUATOR_H_
#define QOCO_QUERY_EVALUATOR_H_

#include <string>
#include <vector>

#include "src/provenance/witness.h"
#include "src/query/assignment.h"
#include "src/query/column_stats.h"
#include "src/query/planner.h"
#include "src/query/query.h"
#include "src/relational/database.h"

namespace qoco::query {

/// One answer tuple together with its valid assignments A(t, Q, D) and its
/// (deduplicated) witnesses wit(A(t, Q, D)). Evaluator::Evaluate fills
/// both; an IncrementalView keeps the witnesses only, as a shared set
/// (query::ViewAnswer).
struct AnswerInfo {
  relational::Tuple tuple;
  std::vector<Assignment> assignments;
  provenance::WitnessSet witnesses;
};

/// The result of evaluating a query: Q(D) with provenance.
class EvalResult {
 public:
  const std::vector<AnswerInfo>& answers() const { return answers_; }
  std::vector<AnswerInfo>& mutable_answers() { return answers_; }

  /// True iff `t` is in Q(D).
  bool ContainsAnswer(const relational::Tuple& t) const;

  /// The AnswerInfo for `t`, or nullptr.
  const AnswerInfo* Find(const relational::Tuple& t) const;

  /// The AnswerInfo for `t`, inserting an empty one at its sorted slot if
  /// absent. The pointer is valid until the next insertion.
  AnswerInfo* FindOrInsert(const relational::Tuple& t);

  /// Just the answer tuples, in a deterministic (sorted) order.
  std::vector<relational::Tuple> AnswerTuples() const;

  size_t size() const { return answers_.size(); }
  bool empty() const { return answers_.empty(); }

 private:
  friend class Evaluator;

  /// The shared sorted-by-tuple lower-bound used by every answer-merge
  /// path (both Evaluate overloads and Find).
  std::vector<AnswerInfo>::iterator LowerBound(const relational::Tuple& t);
  std::vector<AnswerInfo>::const_iterator LowerBound(
      const relational::Tuple& t) const;

  std::vector<AnswerInfo> answers_;  // kept sorted by tuple
};

/// Evaluates conjunctive queries with inequalities over a Database using an
/// index-backed backtracking join. Unlimited searches run under an explicit
/// cost-based Plan (see Planner): the planner picks the root atom by exact
/// candidate counts, pre-filters the root scan with a semi-join reduction,
/// and prunes unification through per-variable allowed-id sets. Limited
/// searches pick their root adaptively. Below the root, every search
/// adapts over exact index counts (most bound positions, then fewest
/// candidates). Inequalities are checked as soon as both sides are
/// resolvable.
class Evaluator {
 public:
  /// The database must outlive the evaluator. The evaluator always reads
  /// the database's *current* state, so it can be reused across edits
  /// (plans re-derive from fresh ColumnStats when a relation's version
  /// moved).
  explicit Evaluator(const relational::Database* db) : db_(db), stats_(db) {}

  /// The lazily maintained statistics plans derive from; exposed for
  /// audits and tests (single-threaded reads only, like evaluation).
  const ColumnStats& stats() const { return stats_; }

  /// EXPLAIN: the plan an unlimited evaluation of Q (from the empty
  /// binding) would run, rendered via Plan::DebugString, with the
  /// predicted suffix and its estimates.
  std::string ExplainPlan(const CQuery& q) const;

  /// The database this evaluator reads (callers constructing partial
  /// assignments need its dictionary).
  const relational::Database* db() const { return db_; }

  /// Full evaluation of Q with provenance (assignments + witnesses).
  EvalResult Evaluate(const CQuery& q) const;

  /// Evaluation of a union query: the union of the disjuncts' answers with
  /// witnesses merged (assignments are not merged across disjuncts since
  /// they live in different variable spaces; only the first disjunct's
  /// assignments are retained per answer).
  EvalResult Evaluate(const UnionQuery& q) const;

  /// All extensions of `partial` to assignments that are total and valid
  /// for Q's relational atoms, up to `limit` (0 = unlimited). The returned
  /// assignments include the bindings of `partial` (which may bind
  /// variables outside Q's atoms; those pass through untouched).
  std::vector<Assignment> FindExtensions(const CQuery& q,
                                         const Assignment& partial,
                                         size_t limit) const;

  /// True iff `partial` is satisfiable w.r.t. Q and the database (extends
  /// to a valid total assignment).
  bool IsSatisfiable(const CQuery& q, const Assignment& partial) const;

  /// The witness for a total valid assignment: the facts of α(body(Q)).
  /// Precondition: every atom grounds under `a`.
  static provenance::Witness WitnessFor(const CQuery& q, const Assignment& a);

 private:
  const relational::Database* db_;
  // Lazily refreshed while planning; mutable for the same build-on-demand
  // reason as Relation's indexes.
  mutable ColumnStats stats_;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_EVALUATOR_H_
