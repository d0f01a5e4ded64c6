#ifndef QOCO_CLEANING_UNION_CLEANER_H_
#define QOCO_CLEANING_UNION_CLEANER_H_

#include "src/cleaning/cleaner.h"
#include "src/query/incremental_view.h"
#include "src/query/query.h"

namespace qoco::cleaning {

/// Query-oriented cleaning for unions of conjunctive queries (the paper's
/// results extend to UCQs; Section 2).
///
/// * A wrong answer of the union must be removed from *every* disjunct
///   that produces it: the witness sets of all disjuncts are combined into
///   one hitting-set instance, so one crowd question can prune witnesses
///   across disjuncts.
/// * A missing answer needs a witness under *some* disjunct: Algorithm 2
///   runs per disjunct — most selective first — until one succeeds.
///
/// Verification questions TRUE(Q, t)? are posed against the union.
class UnionCleaner {
 public:
  /// Same contract as QocoCleaner, over a UnionQuery.
  UnionCleaner(const query::UnionQuery& q, relational::Database* db,
               crowd::CrowdPanel* panel, CleanerConfig config,
               common::Rng rng)
      : q_(q), db_(db), panel_(panel), config_(config), rng_(rng) {}

  /// Runs the session to convergence (or the iteration cap).
  common::Result<CleanerStats> Run();

 private:
  /// Removes a wrong union answer by hitting the combined witness sets,
  /// read from the session's maintained `view`.
  common::Result<RemoveResult> RemoveWrongUnionAnswer(
      const query::IncrementalUnionView& view, const relational::Tuple& t);

  /// Adds a missing union answer by trying disjuncts in order of how close
  /// their instantiated bodies are to being satisfied over D.
  common::Result<InsertResult> AddMissingUnionAnswer(
      const relational::Tuple& t);

  /// Is t an answer of the union over the current database?
  bool UnionContains(const relational::Tuple& t) const;

  const query::UnionQuery& q_;
  relational::Database* db_;
  crowd::CrowdPanel* panel_;
  CleanerConfig config_;
  common::Rng rng_;
};

}  // namespace qoco::cleaning

#endif  // QOCO_CLEANING_UNION_CLEANER_H_
