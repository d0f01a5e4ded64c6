#ifndef QOCO_CLEANING_AGGREGATE_CLEANER_H_
#define QOCO_CLEANING_AGGREGATE_CLEANER_H_

#include <optional>

#include "src/cleaning/cleaner.h"
#include "src/query/aggregate.h"
#include "src/query/incremental_view.h"

namespace qoco::cleaning {

/// Query-oriented cleaning for COUNT aggregate views (the paper's Section
/// 9 "aggregates" future work). The paper notes the difficulty: "there are
/// potentially numerous ways to achieve the same aggregate". The cleaner
/// prunes that space by decomposing every group into its counted *units*
/// (distinct counted sub-tuples of the base query): each unit is an
/// ordinary conjunctive-query answer that can be verified, removed
/// (Algorithm 1) or inserted (Algorithm 2) independently, and the HAVING
/// comparison only ever depends on how many units survive.
///
/// For COUNT(DISTINCT ...) >= k:
///  * a group qualifying over D is *wrong* iff it has fewer than k true
///    units: its units are verified (stopping early at k successes) and
///    the false ones removed until the count drops below k;
///  * a *missing* group surfaces through missing base answers
///    (COMPL(base(D))): its group is then raised to k true units by
///    inserting crowd-completed units.
/// For COUNT(DISTINCT ...) <= k the roles mirror: wrong groups are pushed
/// above k by inserting the true units the crowd knows; over-full groups
/// are brought back under k by deleting false units.
class AggregateCleaner {
 public:
  /// Same contract as QocoCleaner, over an AggregateQuery.
  AggregateCleaner(const query::AggregateQuery& q, relational::Database* db,
                   crowd::CrowdPanel* panel, CleanerConfig config,
                   common::Rng rng)
      : q_(q), db_(db), panel_(panel), config_(config), rng_(rng) {}

  /// Runs the session to convergence (or the iteration cap).
  common::Result<CleanerStats> Run();

 private:
  /// Verifies the group's units in D and deletes false ones until the
  /// HAVING comparison stops holding (>= k case) or the group is known
  /// true. Returns whether edits were applied.
  common::Result<bool> ShrinkGroup(const query::AggregateGroup& group,
                                   CleanerStats* stats);

  /// Pulls missing units for `group` from the crowd and inserts them until
  /// the group reaches `target_count` true units or the crowd runs dry.
  /// Returns whether edits were applied.
  common::Result<bool> GrowGroup(const relational::Tuple& group,
                                 size_t target_count, CleanerStats* stats);

  /// Current units of `group` over D, read from the base view.
  std::vector<relational::Tuple> UnitsOf(const relational::Tuple& group) const;

  const query::AggregateQuery& q_;
  relational::Database* db_;
  crowd::CrowdPanel* panel_;
  CleanerConfig config_;
  common::Rng rng_;
  /// Built by Run(): the maintained base-query view every group, unit and
  /// missing-base-answer read goes through.
  std::optional<query::IncrementalView> base_view_;
  /// Paces base_view_'s deep audits (SyncView).
  common::AuditTicker audit_ticker_{kDebugAuditPeriod};
};

}  // namespace qoco::cleaning

#endif  // QOCO_CLEANING_AGGREGATE_CLEANER_H_
