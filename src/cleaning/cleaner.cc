#include "src/cleaning/cleaner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "src/crowd/enumeration_estimator.h"
#include "src/query/evaluator.h"
#include "src/query/incremental_view.h"

namespace qoco::cleaning {

namespace {

// The steps of Algorithm 3 that differ by view language, one overload per
// language; RunAlgorithm3 below holds the rest of the loop.

/// The conjunctive queries whose plans QOCO_EXPLAIN dumps.
std::span<const query::CQuery> Disjuncts(const query::CQuery& q) {
  return {&q, 1};
}
std::span<const query::CQuery> Disjuncts(const query::UnionQuery& q) {
  return q.disjuncts();
}

/// Starts the view of `q`: from `seed` when there is one, otherwise by
/// evaluating. Union views always evaluate.
query::IncrementalView StartView(const query::CQuery& q,
                                 const relational::Database* db,
                                 const query::ViewSeed* seed) {
  if (seed == nullptr) return query::IncrementalView(q, db);
  return query::IncrementalView(q, db, *seed);
}
query::IncrementalUnionView StartView(const query::UnionQuery& q,
                                      const relational::Database* db,
                                      const query::ViewSeed* /*seed*/) {
  return query::IncrementalUnionView(q, db);
}

/// The view's current answers, sorted.
std::vector<relational::Tuple> Answers(const query::IncrementalView& view) {
  return view.AnswerTuples();
}
std::vector<relational::Tuple> Answers(
    const query::IncrementalUnionView& view) {
  return view.AnswerTuples();
}

/// Algorithm 2 for a missing answer of a conjunctive query.
common::Result<InsertResult> InsertMissingAnswer(
    const query::CQuery& q, relational::Database* db,
    const relational::Tuple& t, crowd::CrowdPanel* panel,
    const InsertionConfig& config, common::Rng* rng) {
  return AddMissingAnswer(q, db, t, panel, config, rng);
}

/// A missing union answer needs a witness under some disjunct. Disjuncts
/// are tried cheapest-first (fewest variables to fill in Q_i|t); each is
/// first confirmed with the crowd as producing t (a boolean question),
/// since Algorithm 2's up-front ground-atom insertions are only sound
/// under that premise.
common::Result<InsertResult> InsertMissingAnswer(
    const query::UnionQuery& q, relational::Database* db,
    const relational::Tuple& t, crowd::CrowdPanel* panel,
    const InsertionConfig& config, common::Rng* rng) {
  std::vector<std::pair<size_t, size_t>> order;  // (naive vars, index)
  for (size_t i = 0; i < q.disjuncts().size(); ++i) {
    auto q_t = q.disjuncts()[i].InstantiateAnswer(t);
    if (!q_t.ok()) continue;
    order.emplace_back(q_t->BodyVars().size(), i);
  }
  std::sort(order.begin(), order.end());

  InsertResult out;
  for (const auto& [vars, index] : order) {
    const query::CQuery& disjunct = q.disjuncts()[index];
    if (!panel->VerifyAnswer(disjunct, t)) continue;
    QOCO_ASSIGN_OR_RETURN(
        InsertResult attempt,
        AddMissingAnswer(disjunct, db, t, panel, config, rng));
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

/// Algorithm 3's loop over the view of `q` (query::IncrementalView for a
/// CQuery, query::IncrementalUnionView for a UnionQuery), started from
/// `seed` when there is one (see StartView).
template <typename Query>
common::Result<CleanerStats> RunAlgorithm3(const Query& q,
                                           relational::Database* db,
                                           crowd::CrowdPanel* panel,
                                           const CleanerConfig& config,
                                           common::Rng* rng,
                                           const query::ViewSeed* seed) {
  CleanerStats stats;
  // EXPLAIN hook: dump each query plan once, before any edit, when the
  // environment asks for it. Diagnostics only — stderr, so transcripts on
  // stdout stay untouched.
  if (const char* flag = std::getenv("QOCO_EXPLAIN");
      flag != nullptr && flag[0] == '1') {
    query::Evaluator evaluator(db);
    for (const query::CQuery& disjunct : Disjuncts(q)) {
      std::fputs(evaluator.ExplainPlan(disjunct).c_str(), stderr);
    }
  }
  // Pay full-query cost once here (or in the seed), delta cost per edit.
  auto view = StartView(q, db, seed);
  common::AuditTicker audit_ticker(kDebugAuditPeriod);
  std::set<relational::Tuple> verified;
  crowd::QuestionCounts baseline = panel->counts();

  bool first_iteration = true;
  while (stats.iterations < config.max_iterations) {
    // Re-entry condition (line 1): first iteration, or unverified answers
    // remain (insertions/deletions may have created new errors).
    std::vector<relational::Tuple> current = Answers(view);
    bool has_unverified = false;
    for (const relational::Tuple& t : current) {
      if (!verified.contains(t)) has_unverified = true;
    }
    // Without the deletion part there is no verification loop, so a single
    // insertion pass is all the algorithm can do.
    if (!first_iteration && (!has_unverified || !config.do_deletion)) break;
    first_iteration = false;
    ++stats.iterations;

    // Deletion part (lines 2-6): verify every unverified answer in order;
    // remove the wrong ones. Every answer before `next` is verified. A
    // removal only erases answers, so after one the scan resumes at t's
    // sorted place in the refreshed answers: t itself may survive its own
    // removal when the crowd is imperfect.
    size_t next = 0;
    while (config.do_deletion) {
      while (next < current.size() && verified.contains(current[next])) {
        ++next;
      }
      if (next == current.size()) break;
      const relational::Tuple t = current[next];
      if (panel->VerifyAnswer(q, t)) {
        verified.insert(t);
        continue;
      }
      QOCO_ASSIGN_OR_RETURN(
          RemoveResult removal,
          RemoveWrongAnswerFromWitnesses(view.Witnesses(t), panel,
                                         config.deletion_policy, rng,
                                         config.trust));
      if (removal.edits.empty()) {
        // Contradictory crowd verdicts (the answer was judged wrong but
        // every witness tuple verified true) are possible with imperfect
        // experts; accept the answer to guarantee progress.
        verified.insert(t);
        continue;
      }
      QOCO_RETURN_NOT_OK(ApplyEdits(removal.edits, db));
      SyncView(removal.edits, *db, &audit_ticker, &view);
      stats.edits.insert(stats.edits.end(), removal.edits.begin(),
                         removal.edits.end());
      stats.deletion_upper_bound += removal.distinct_witness_facts;
      ++stats.wrong_answers_removed;
      current = Answers(view);
      next = static_cast<size_t>(
          std::lower_bound(current.begin(), current.end(), t) -
          current.begin());
    }

    // Insertion part (lines 7-9): enumerate missing answers with the
    // crowd until the enumeration black-box reports completeness.
    crowd::EnumerationEstimator estimator(config.enumeration_nulls_to_stop);
    std::set<relational::Tuple> attempted;
    while (config.do_insertion && !estimator.IsLikelyComplete()) {
      current = Answers(view);
      std::optional<relational::Tuple> missing =
          panel->MissingAnswer(q, current);
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
          InsertMissingAnswer(q, db, *missing, panel, config.insertion, rng));
      // Algorithm 2 applies its edits as it goes; replay them into the view.
      SyncView(insertion.edits, *db, &audit_ticker, &view);
      stats.edits.insert(stats.edits.end(), insertion.edits.begin(),
                         insertion.edits.end());
      stats.insertion_upper_bound += insertion.naive_upper_bound_vars;
      if (insertion.succeeded) {
        verified.insert(*missing);
        ++stats.missing_answers_added;
      }
    }
  }

  stats.questions = panel->counts() - baseline;
  return stats;
}

}  // namespace

common::Result<CleanerStats> QocoCleaner::Run() {
  return RunAlgorithm3(q_, db_, panel_, config_, &rng_, seed_);
}

common::Result<CleanerStats> UnionCleaner::Run() {
  return RunAlgorithm3(q_, db_, panel_, config_, &rng_, /*seed=*/nullptr);
}

}  // namespace qoco::cleaning
