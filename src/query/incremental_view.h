#ifndef QOCO_QUERY_INCREMENTAL_VIEW_H_
#define QOCO_QUERY_INCREMENTAL_VIEW_H_

#include <memory>
#include <vector>

#include "src/provenance/witness.h"
#include "src/query/evaluator.h"
#include "src/query/query.h"
#include "src/relational/database.h"
#include "src/relational/id_posting_map.h"

namespace qoco::query {

/// One answer of a view: its tuple and its witness set. The set is
/// immutable, so a view seed and the views started from it share it; an
/// edit that changes it replaces the pointer with an edited copy.
struct ViewAnswer {
  relational::Tuple tuple;
  std::shared_ptr<const provenance::WitnessSet> witnesses;
};

/// What an IncrementalView over Q and D starts from: Q(D), each answer with
/// its witness set, plus every column index of Q's relations that is built
/// once Q has been evaluated over D, with its posting lists.
///
/// A seed lets several views over identical databases pay for one
/// evaluation (the session service shares one per query and snapshot).
/// The indexes are part of it because a posting list's order follows its
/// history: a list built before a swap-remove erase is patched in place,
/// one built after it lists the surviving rows in row order. Limited
/// searches enumerate in posting-list order, and the first extension they
/// find reaches crowd questions. So a view started from a seed installs
/// the seed's postings on its database before any edit, where the
/// evaluation would have built them; the copy costs two flat vectors per
/// column, not a build.
struct ViewSeed {
  /// Sorted by tuple.
  std::vector<ViewAnswer> answers;
  struct Column {
    relational::RelationId relation;
    size_t column;
    relational::IdPostingMap postings;
  };
  /// By relation then column.
  std::vector<Column> columns;
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
/// history and carries no meaning (Algorithm 1 reads the set). Witness sets
/// are never written once made: a delta that changes an answer's set
/// replaces it with an edited copy, so views started from one seed share
/// every set none of them has edited.
///
/// Notify AFTER the database mutation: OnInsert(f) once f is in D,
/// OnErase(f) once it is gone. Notifications are idempotent and, for a
/// batch of edits already applied to D, order-insensitive — so a caller
/// that applied several edits may replay them in any order.
class IncrementalView {
 public:
  /// Evaluates Q(D) once. `db` must outlive the view; the query is copied.
  IncrementalView(CQuery q, const relational::Database* db);

  /// Starts from `seed` without evaluating: installs the seed's postings
  /// into the cold columns of `db` (Relation::InstallPostings), then shares
  /// its answers. `seed` must be MakeViewSeed(q, d) for a database d that
  /// had db's rows and built indexes before it was evaluated (a copy of
  /// db, or db copied from it); then the view and every posting list of db
  /// equal what the constructor above makes.
  IncrementalView(CQuery q, const relational::Database* db,
                  const ViewSeed& seed);

  const CQuery& query() const { return q_; }

  /// The maintained answers of Q(D), sorted.
  std::vector<relational::Tuple> AnswerTuples() const;

  /// Number of answers.
  size_t size() const { return answers_.size(); }

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

  /// Deep audit of the maintained answers: strictly sorted, none without a
  /// witness, every witness over live facts, and the answer set and each
  /// answer's witness set equal a from-scratch evaluation of the query.
  /// Costs one full evaluation — debug/fuzz tooling, not the hot path.
  /// Does not touch stats(). Returns OK or kInternal listing every
  /// violation.
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
  std::vector<ViewAnswer> answers_;  // sorted by tuple
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
