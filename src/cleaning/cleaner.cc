#include "src/cleaning/cleaner.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>

#include "src/common/check.h"
#include "src/common/invariant.h"
#include "src/crowd/enumeration_estimator.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"

namespace qoco::cleaning {

common::Result<CleanerStats> QocoCleaner::Run() {
  CleanerStats stats;
  // EXPLAIN hook: dump the session query's plan once, before any edit,
  // when the environment asks for it. Diagnostics only — stderr, so
  // transcripts on stdout stay untouched.
  if (const char* flag = std::getenv("QOCO_EXPLAIN");
      flag != nullptr && flag[0] == '1') {
    std::fputs(query::Evaluator(db_).ExplainPlan(q_).c_str(), stderr);
  }
  // Pay full-query cost once here, delta cost per edit.
  query::IncrementalView view(q_, db_);
  // Replays already-applied edits into the view (delta maintenance).
  common::AuditTicker audit_ticker(kDebugAuditPeriod);
  auto sync_view = [&](const EditList& edits) {
    for (const Edit& e : edits) {
      if (e.kind == Edit::Kind::kInsert) {
        view.OnInsert(e.fact);
      } else {
        view.OnErase(e.fact);
      }
    }
    if (common::kDebugChecksEnabled && audit_ticker.Tick()) {
      QOCO_CHECK_OK(view.AuditInvariants());
      QOCO_CHECK_OK(db_->AuditInvariants());
    }
  };
  std::set<relational::Tuple> verified;
  crowd::QuestionCounts baseline = panel_->counts();

  bool first_iteration = true;
  while (stats.iterations < config_.max_iterations) {
    // Re-entry condition (line 1): first iteration, or unverified answers
    // remain (insertions/deletions may have created new errors).
    std::vector<relational::Tuple> current = view.result().AnswerTuples();
    bool has_unverified = false;
    for (const relational::Tuple& t : current) {
      if (!verified.contains(t)) has_unverified = true;
    }
    // Without the deletion part there is no verification loop, so a single
    // insertion pass is all the algorithm can do.
    if (!first_iteration && (!has_unverified || !config_.do_deletion)) break;
    first_iteration = false;
    ++stats.iterations;

    // Deletion part (lines 2-6): verify every unverified answer; remove
    // the wrong ones. The view refreshes after each removal since edits
    // can change the result.
    while (config_.do_deletion) {
      current = view.result().AnswerTuples();
      const relational::Tuple* next_unverified = nullptr;
      for (const relational::Tuple& t : current) {
        if (!verified.contains(t)) {
          next_unverified = &t;
          break;
        }
      }
      if (next_unverified == nullptr) break;
      relational::Tuple t = *next_unverified;
      if (panel_->VerifyAnswer(q_, t)) {
        verified.insert(t);
        continue;
      }
      // The view already holds t's witnesses; no re-evaluation needed.
      const query::AnswerInfo* info = view.result().Find(t);
      QOCO_ASSIGN_OR_RETURN(
          RemoveResult removal,
          RemoveWrongAnswerFromWitnesses(
              info != nullptr ? info->witnesses : provenance::WitnessSet{},
              panel_, config_.deletion_policy, &rng_, config_.trust));
      if (removal.edits.empty()) {
        // Contradictory crowd verdicts (the answer was judged wrong but
        // every witness tuple verified true) are possible with imperfect
        // experts; accept the answer to guarantee progress.
        verified.insert(t);
        continue;
      }
      QOCO_RETURN_NOT_OK(ApplyEdits(removal.edits, db_));
      sync_view(removal.edits);
      stats.edits.insert(stats.edits.end(), removal.edits.begin(),
                         removal.edits.end());
      stats.deletion_upper_bound += removal.distinct_witness_facts;
      ++stats.wrong_answers_removed;
    }

    // Insertion part (lines 7-9): enumerate missing answers with the
    // crowd until the enumeration black-box reports completeness.
    crowd::EnumerationEstimator estimator(config_.enumeration_nulls_to_stop);
    std::set<relational::Tuple> attempted;
    while (config_.do_insertion && !estimator.IsLikelyComplete()) {
      current = view.result().AnswerTuples();
      std::optional<relational::Tuple> missing =
          panel_->MissingAnswer(q_, current);
      if (missing.has_value() && !attempted.insert(*missing).second) {
        // An earlier insertion attempt for this answer failed (possible
        // only with imperfect experts); treat the repeat as exhaustion so
        // the loop terminates.
        estimator.RecordReply(std::nullopt);
        continue;
      }
      estimator.RecordReply(missing);
      if (!missing.has_value()) continue;
      QOCO_ASSIGN_OR_RETURN(
          InsertResult insertion,
          AddMissingAnswer(q_, db_, *missing, panel_, config_.insertion,
                           &rng_));
      // Algorithm 2 applies its edits as it goes; replay them into the view.
      sync_view(insertion.edits);
      stats.edits.insert(stats.edits.end(), insertion.edits.begin(),
                         insertion.edits.end());
      stats.insertion_upper_bound += insertion.naive_upper_bound_vars;
      if (insertion.succeeded) {
        verified.insert(*missing);
        ++stats.missing_answers_added;
      }
    }
  }

  stats.questions = panel_->counts() - baseline;
  return stats;
}

}  // namespace qoco::cleaning
