#ifndef QOCO_CLEANING_CLEANER_H_
#define QOCO_CLEANING_CLEANER_H_

#include "src/cleaning/add_missing_answer.h"
#include "src/cleaning/edit.h"
#include "src/cleaning/remove_wrong_answer.h"
#include "src/common/check.h"
#include "src/common/invariant.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/question_log.h"
#include "src/query/query.h"
#include "src/relational/database.h"

namespace qoco::query {
struct ViewSeed;
}  // namespace qoco::query

namespace qoco::cleaning {

/// Every how many view syncs the cleaning loops deep-audit the maintained
/// view and the database in common::kDebugChecksEnabled builds (plain
/// release builds skip the audits entirely).
inline constexpr size_t kDebugAuditPeriod = 16;

/// Replays edits already applied to `db` into `view` (delta maintenance,
/// query::IncrementalView or query::IncrementalUnionView). In
/// common::kDebugChecksEnabled builds, every kDebugAuditPeriod-th sync
/// counted by `ticker` (built with that period) also deep-audits the view
/// and the database.
template <typename View>
void SyncView(const EditList& edits, const relational::Database& db,
              common::AuditTicker* ticker, View* view) {
  for (const Edit& e : edits) {
    if (e.kind == Edit::Kind::kInsert) {
      view->OnInsert(e.fact);
    } else {
      view->OnErase(e.fact);
    }
  }
  if (common::kDebugChecksEnabled && ticker->Tick()) {
    QOCO_CHECK_OK(view->AuditInvariants());
    QOCO_CHECK_OK(db.AuditInvariants());
  }
}

/// Configuration of the end-to-end cleaner (Algorithm 3).
struct CleanerConfig {
  DeletionPolicy deletion_policy = DeletionPolicy::kQoco;
  /// Consulted only by DeletionPolicy::kLeastTrusted.
  const TrustModel* trust = nullptr;
  InsertionConfig insertion;
  /// Phase toggles: the deletion-only / insertion-only experiments of
  /// Section 7.2 run Algorithm 3 with one of the parts switched off.
  bool do_deletion = true;
  bool do_insertion = true;
  /// Consecutive "result is complete" crowd replies required by the
  /// enumeration black-box before the insertion loop stops. 1 suffices for
  /// a perfect oracle.
  size_t enumeration_nulls_to_stop = 1;
  /// Safety bound on outer iterations: with a perfect oracle convergence
  /// is guaranteed (Propositions 3.3/3.4), but imperfect experts can
  /// oscillate.
  size_t max_iterations = 25;
};

/// Aggregate outcome of a cleaning session.
struct CleanerStats {
  EditList edits;
  size_t wrong_answers_removed = 0;
  size_t missing_answers_added = 0;
  size_t iterations = 0;
  /// Sum over removed answers of the distinct facts in their witness sets:
  /// the naive deletion upper bound (Figure 3's bar totals).
  size_t deletion_upper_bound = 0;
  /// Sum over added answers of |Var(Q|t)|: the naive insertion upper
  /// bound.
  size_t insertion_upper_bound = 0;
  /// Crowd interaction counters accumulated during the session.
  crowd::QuestionCounts questions;
};

/// Algorithm 3 (Main): repairs Q(D) against the ground truth by repeatedly
/// (a) verifying every unverified answer of Q(D) with the crowd, removing
/// wrong ones via Algorithm 1, and (b) asking the crowd for missing answers
/// until the enumeration black-box reports completeness, inserting them via
/// Algorithm 2. Fixing one error class can expose errors of the other
/// (Example 6.1); the outer loop converges because every edit moves D
/// closer to DG (Proposition 3.3).
///
/// The view is materialized once and delta-maintained across every edit
/// (query::IncrementalView). A session runs on the calling thread. Set
/// QOCO_EXPLAIN=1 to dump the session query's plan to stderr at startup.
/// UnionCleaner runs the same loop over a union of conjunctive queries.
class QocoCleaner {
 public:
  /// `db` is cleaned in place; `panel` supplies the crowd; all must
  /// outlive the cleaner. With a `seed` (query::MakeViewSeed of `q` over a
  /// copy of `db`, see query::IncrementalView), the view starts from it
  /// instead of evaluating `q`; the session is the same either way.
  QocoCleaner(const query::CQuery& q, relational::Database* db,
              crowd::CrowdPanel* panel, CleanerConfig config,
              common::Rng rng, const query::ViewSeed* seed = nullptr)
      : q_(q),
        db_(db),
        panel_(panel),
        config_(config),
        rng_(rng),
        seed_(seed) {}

  /// Runs the cleaning session to convergence (or the iteration cap).
  common::Result<CleanerStats> Run();

 private:
  const query::CQuery& q_;
  relational::Database* db_;
  crowd::CrowdPanel* panel_;
  CleanerConfig config_;
  common::Rng rng_;
  const query::ViewSeed* seed_;
};

/// Algorithm 3 over a union of conjunctive queries (the paper's results
/// extend to UCQs; Section 2). The loop is QocoCleaner's; two steps
/// differ:
///
/// * A wrong answer of the union must be removed from *every* disjunct
///   that produces it: the witness sets of all disjuncts are combined into
///   one hitting-set instance, so one crowd question can prune witnesses
///   across disjuncts.
/// * A missing answer needs a witness under *some* disjunct: Algorithm 2
///   runs per disjunct — fewest variables first, each behind a
///   TRUE(Q_i, t)? check — until one succeeds.
///
/// Verification questions TRUE(Q, t)? are posed against the union. One
/// query::IncrementalUnionView (a view per disjunct) is maintained across
/// every edit; QOCO_EXPLAIN=1 dumps each disjunct's plan.
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
  const query::UnionQuery& q_;
  relational::Database* db_;
  crowd::CrowdPanel* panel_;
  CleanerConfig config_;
  common::Rng rng_;
};

}  // namespace qoco::cleaning

#endif  // QOCO_CLEANING_CLEANER_H_
