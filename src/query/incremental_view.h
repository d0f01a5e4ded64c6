#ifndef QOCO_QUERY_INCREMENTAL_VIEW_H_
#define QOCO_QUERY_INCREMENTAL_VIEW_H_

#include <utility>
#include <vector>

#include "src/provenance/witness.h"
#include "src/query/evaluator.h"
#include "src/query/query.h"
#include "src/relational/database.h"

namespace qoco::query {

/// What an IncrementalView over Q and D starts from: Q(D) with each
/// answer's witness set and no assignments, plus every column index of Q's
/// relations that is built once Q has been evaluated over D.
///
/// A seed lets several views over identical databases pay for one
/// evaluation (the session service shares one per query and snapshot). The
/// indexes are part of it because a posting list's order follows its
/// history: a list built before a swap-remove erase is patched in place,
/// one built after it lists the surviving rows in row order. Limited
/// searches enumerate in posting-list order, and the first extension they
/// find reaches crowd questions. So a view started from a seed builds the
/// seed's columns before any edit, as the evaluation would have.
struct ViewSeed {
  EvalResult result;
  /// (relation, column) pairs, by relation then column.
  std::vector<std::pair<relational::RelationId, size_t>> columns;
};

/// Evaluates Q over `db` once and records the seed.
ViewSeed MakeViewSeed(const CQuery& q, const relational::Database& db);

/// Incrementally maintained materialization of Q(D) with provenance.
///
/// The cleaning loop of Algorithm 4 applies one insert/delete edit per
/// oracle round and then needs the refreshed view; re-evaluating Q from
/// scratch each round makes the session quadratic in practice. An
/// IncrementalView pays the full-evaluation cost once (at construction, or
/// in the ViewSeed it starts from), keeps each answer's tuple and witness
/// set (the assignment lists the evaluation built them from are released),
/// and maintains both under single-fact deltas with the standard
/// delta-rule decomposition for monotone queries:
///
///  * insert of fact f into R: for every body atom over R, unify the atom
///    with f (pinning it) and search for extensions of that partial
///    assignment over the *current* database; every extension found is a
///    new valid assignment whose witness contains f. Its witness is merged
///    unless already listed, which dedups across atoms (an assignment may
///    pin f at several atoms) and makes notifications idempotent.
///  * delete of f: every valid assignment that maps some atom to f has
///    lost its witness, and an assignment maps an atom to f iff its witness
///    holds f; drop the witnesses that hold f, and erase answers left with
///    no witness.
///
/// Both rules are exact for conjunctive queries with inequalities (the
/// query language of the paper): inserts never remove answers and deletes
/// never add them, so the two deltas compose to the from-scratch result.
/// An answer's witnesses are a set: their list order follows the edit
/// history and carries no meaning (Algorithm 1 reads the set).
///
/// Notify AFTER the database mutation: OnInsert(f) once f is in D,
/// OnErase(f) once it is gone. Notifications are idempotent and, for a
/// batch of edits already applied to D, order-insensitive — so a caller
/// that applied several edits may replay them in any order.
class IncrementalView {
 public:
  /// Evaluates Q(D) once (MakeViewSeed) and starts from that seed. `db`
  /// must outlive the view; the query is copied.
  IncrementalView(CQuery q, const relational::Database* db);

  /// Starts from `seed` without evaluating: builds the seed's columns on
  /// `db`, then takes its answers. `seed` must be MakeViewSeed(q, d) for a
  /// database d that had db's rows and built indexes before it was
  /// evaluated (a copy of db, or db copied from it); then the view and
  /// every posting list of db equal what the constructor above makes.
  IncrementalView(CQuery q, const relational::Database* db, ViewSeed seed);

  const CQuery& query() const { return q_; }

  /// The maintained Q(D) with provenance (answers sorted by tuple, same
  /// invariant as Evaluator::Evaluate). Every AnswerInfo::assignments is
  /// empty.
  const EvalResult& result() const { return result_; }

  /// The witnesses of the answer `t` (empty if t is not an answer), valid
  /// until the next OnInsert or OnErase.
  const provenance::WitnessSet& Witnesses(const relational::Tuple& t) const;

  /// Delta-maintains the view after `f` was inserted into the database.
  void OnInsert(const relational::Fact& f);

  /// Delta-maintains the view after `f` was erased from the database.
  void OnErase(const relational::Fact& f);

  /// Maintenance counters, for tests and benchmarks.
  struct Stats {
    size_t insert_deltas = 0;  // OnInsert calls that ran the delta rule
    size_t erase_deltas = 0;   // OnErase calls that ran the delta rule
    size_t skipped_deltas = 0; // notifications for relations not in Q
  };
  const Stats& stats() const { return stats_; }

  /// Deep audit of the maintained result: answers strictly sorted, no
  /// answer caches assignments or has no witness, every cached witness is
  /// over live facts, and the answer set and each answer's witness set
  /// equal a from-scratch evaluation of the query. Costs one full
  /// evaluation — debug/fuzz tooling, not the hot path. Does not touch
  /// stats(). Returns OK or kInternal listing every violation.
  common::Status AuditInvariants() const;

 private:
  // Test-only backdoor used by the corruption-injection tests to seed
  // invariant violations (tests/invariant_audit_test.cc).
  friend struct IncrementalViewCorruptor;
  /// True iff some body atom ranges over `rel`.
  bool Relevant(relational::RelationId rel) const;

  CQuery q_;
  const relational::Database* db_;
  Evaluator evaluator_;
  EvalResult result_;
  Stats stats_;
};

/// Incrementally maintained union view: one IncrementalView per disjunct,
/// merged on read. Mirrors how UnionCleaner consumes union results — the
/// merged answer list for verification/enumeration, and the witnesses of
/// every disjunct for the shared hitting-set instance.
class IncrementalUnionView {
 public:
  IncrementalUnionView(const UnionQuery& q, const relational::Database* db);

  /// Distinct answers of the union, sorted.
  std::vector<relational::Tuple> AnswerTuples() const;

  /// The witnesses of `t` under every disjunct that produces it, one
  /// disjunct after another (empty if t is not a union answer). A witness
  /// two disjuncts share is listed once per disjunct.
  provenance::WitnessSet Witnesses(const relational::Tuple& t) const;

  void OnInsert(const relational::Fact& f);
  void OnErase(const relational::Fact& f);

  /// Audits every disjunct view; violations are prefixed with the disjunct
  /// index.
  common::Status AuditInvariants() const;

 private:
  friend struct IncrementalViewCorruptor;

  std::vector<IncrementalView> views_;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_INCREMENTAL_VIEW_H_
