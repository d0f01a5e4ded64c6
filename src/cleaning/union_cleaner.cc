#include "src/cleaning/union_cleaner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>

#include "src/cleaning/cleaner.h"
#include "src/common/check.h"
#include "src/common/invariant.h"
#include "src/crowd/enumeration_estimator.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"

namespace qoco::cleaning {

bool UnionCleaner::UnionContains(const relational::Tuple& t) const {
  query::Evaluator evaluator(db_);
  for (const query::CQuery& disjunct : q_.disjuncts()) {
    auto q_t = disjunct.InstantiateAnswer(t);
    if (!q_t.ok()) continue;
    if (evaluator.IsSatisfiable(
            *q_t, query::Assignment(q_t->num_vars(), &db_->dict()))) {
      return true;
    }
  }
  return false;
}

common::Result<RemoveResult> UnionCleaner::RemoveWrongUnionAnswer(
    const query::IncrementalUnionView& view, const relational::Tuple& t) {
  // Combine witnesses across all disjuncts that produce t: the answer is
  // gone only once every such witness is destroyed, and sharing one
  // hitting-set instance lets one NO answer prune across disjuncts.
  provenance::WitnessSet combined = view.CombinedWitnesses(t);
  if (combined.empty()) return RemoveResult{};
  return RemoveWrongAnswerFromWitnesses(combined, panel_,
                                        config_.deletion_policy, &rng_,
                                        config_.trust);
}

common::Result<InsertResult> UnionCleaner::AddMissingUnionAnswer(
    const relational::Tuple& t) {
  // Try disjuncts cheapest-first (fewest variables to fill in Q_i|t);
  // for each candidate disjunct first confirm with the crowd that t is an
  // answer of *that* disjunct (a boolean question), since Algorithm 2's
  // up-front ground-atom insertions are only sound under that premise.
  std::vector<std::pair<size_t, size_t>> order;  // (naive vars, index)
  for (size_t i = 0; i < q_.disjuncts().size(); ++i) {
    auto q_t = q_.disjuncts()[i].InstantiateAnswer(t);
    if (!q_t.ok()) continue;
    order.emplace_back(q_t->BodyVars().size(), i);
  }
  std::sort(order.begin(), order.end());

  InsertResult out;
  for (const auto& [vars, index] : order) {
    const query::CQuery& disjunct = q_.disjuncts()[index];
    if (!panel_->VerifyAnswer(disjunct, t)) continue;
    QOCO_ASSIGN_OR_RETURN(
        InsertResult attempt,
        AddMissingAnswer(disjunct, db_, t, panel_, config_.insertion,
                         &rng_));
    out.edits.insert(out.edits.end(), attempt.edits.begin(),
                     attempt.edits.end());
    out.naive_upper_bound_vars =
        std::max(out.naive_upper_bound_vars, attempt.naive_upper_bound_vars);
    if (attempt.succeeded) {
      out.succeeded = true;
      return out;
    }
  }
  return out;
}

common::Result<CleanerStats> UnionCleaner::Run() {
  CleanerStats stats;
  // EXPLAIN hook: one plan dump per disjunct, before any edit, when the
  // environment asks for it (stderr only; transcripts stay untouched).
  if (const char* flag = std::getenv("QOCO_EXPLAIN");
      flag != nullptr && flag[0] == '1') {
    query::Evaluator evaluator(db_);
    for (const query::CQuery& disjunct : q_.disjuncts()) {
      std::fputs(evaluator.ExplainPlan(disjunct).c_str(), stderr);
    }
  }
  // One materialized view per disjunct, delta-maintained across every edit
  // of the session (see query::IncrementalUnionView).
  query::IncrementalUnionView view(q_, db_);
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
    std::vector<relational::Tuple> current = view.AnswerTuples();
    bool has_unverified = false;
    for (const relational::Tuple& t : current) {
      if (!verified.contains(t)) has_unverified = true;
    }
    if (!first_iteration && (!has_unverified || !config_.do_deletion)) break;
    first_iteration = false;
    ++stats.iterations;

    // Deletion part over the union result.
    while (config_.do_deletion) {
      current = view.AnswerTuples();
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
      QOCO_ASSIGN_OR_RETURN(RemoveResult removal,
                            RemoveWrongUnionAnswer(view, t));
      if (removal.edits.empty()) {
        verified.insert(t);  // Contradictory verdicts; accept for progress.
        continue;
      }
      QOCO_RETURN_NOT_OK(ApplyEdits(removal.edits, db_));
      sync_view(removal.edits);
      stats.edits.insert(stats.edits.end(), removal.edits.begin(),
                         removal.edits.end());
      stats.deletion_upper_bound += removal.distinct_witness_facts;
      ++stats.wrong_answers_removed;
    }

    // Insertion part over the union result.
    crowd::EnumerationEstimator estimator(config_.enumeration_nulls_to_stop);
    std::set<relational::Tuple> attempted;
    while (config_.do_insertion && !estimator.IsLikelyComplete()) {
      current = view.AnswerTuples();
      std::optional<relational::Tuple> missing =
          panel_->MissingAnswer(q_, current);
      if (missing.has_value() && !attempted.insert(*missing).second) {
        estimator.RecordReply(std::nullopt);
        continue;
      }
      estimator.RecordReply(missing);
      if (!missing.has_value()) continue;
      QOCO_ASSIGN_OR_RETURN(InsertResult insertion,
                            AddMissingUnionAnswer(*missing));
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
