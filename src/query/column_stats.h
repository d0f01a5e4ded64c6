#ifndef QOCO_QUERY_COLUMN_STATS_H_
#define QOCO_QUERY_COLUMN_STATS_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/relational/database.h"
#include "src/relational/value_id.h"

namespace qoco::query {

/// Per-column summary derived from a relation's posting-list index
/// (relational::Relation::ColumnPostings): what the cost-based planner
/// reads to estimate candidate counts without touching row data.
struct ColumnSummary {
  /// rows / distinct values — the expected candidate count of an equality
  /// probe with an unknown key (0 for an empty column). EXPLAIN's predicted
  /// suffix reads it.
  double avg_posting = 0.0;
  /// Every distinct id of the column, sorted by raw id. Raw-id order is
  /// interning order — deterministic because interning is coordinator-side
  /// only — so these vectors are stable set representations: the semi-join
  /// reduction intersects them across atoms sharing a variable
  /// (relational::IntersectSortedIds). Never display-ordered.
  std::vector<relational::ValueId> domain;
};

/// Stats snapshot of one relation, stamped with the Relation::version() it
/// was computed at. kStaleStatsVersion marks never-computed entries; any
/// mismatch with the live relation's version invalidates the snapshot.
inline constexpr uint64_t kStaleStatsVersion = ~uint64_t{0};

struct RelationSummary {
  uint64_t version = kStaleStatsVersion;
  size_t rows = 0;
  std::vector<ColumnSummary> columns;
};

/// Lazily maintained per-relation column statistics over a Database.
///
/// ForRelation() returns the cached snapshot when its stamped version
/// matches the live Relation::version(), and recomputes it otherwise — so
/// edits invalidate stats for free (the relation bumps its version; the
/// next plan rebuilds the one summary that moved) and a quiet database
/// plans out of pure cache. Recomputing walks the relation's posting-list
/// indexes, building any that are still cold.
///
/// Threading: refresh mutates cached state under a const call, exactly like
/// Relation's lazy index build — so a ColumnStats, like the Evaluator that
/// owns it, is read from one thread at a time.
class ColumnStats {
 public:
  /// `db` must outlive the stats (the Evaluator owns both lifetimes).
  explicit ColumnStats(const relational::Database* db);

  const relational::Database* db() const { return db_; }

  /// The (fresh) summary for `id`. Precondition: the id is valid for the
  /// database's catalog. The reference is valid until the next ForRelation
  /// call that refreshes the same relation.
  const RelationSummary& ForRelation(relational::RelationId id) const;

  /// Number of snapshot recomputations so far — tests assert laziness
  /// (no edit → no refresh) and invalidation (edit → exactly one).
  size_t refreshes() const { return refreshes_; }

  /// Deep audit: every snapshot whose stamp claims freshness (version
  /// matches the live relation) must equal a from-scratch recomputation —
  /// row count, average posting size, and the sorted domain, which must
  /// also be strictly ascending. A snapshot that is merely stale is fine
  /// (laziness is the design), but a snapshot that *claims* freshness and
  /// lies means some mutation path forgot to bump Relation::version().
  /// Returns OK or kInternal listing every violation.
  common::Status AuditInvariants() const;

 private:
  // Test-only backdoor used by the corruption-injection tests to seed
  // invariant violations (tests/planner_test.cc).
  friend struct ColumnStatsCorruptor;

  static RelationSummary Compute(const relational::Relation& rel);

  const relational::Database* db_;
  mutable std::vector<RelationSummary> relations_;
  mutable size_t refreshes_ = 0;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_COLUMN_STATS_H_
