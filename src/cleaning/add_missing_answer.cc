#include "src/cleaning/add_missing_answer.h"

#include <deque>
#include <set>
#include <string>

#include "src/cleaning/constraint_enforcer.h"
#include "src/query/evaluator.h"

namespace qoco::cleaning {

namespace {

/// Cap on the subquery assignments examined per popped subquery; keeps
/// crowd work bounded when an unselective subquery matches much of a
/// relation.
constexpr size_t kMaxAssignmentsPerSubquery = 64;

/// Cap on COMPL(α, Q|t) tasks issued per popped subquery before moving on
/// to finer splits (an unselective subquery's assignments are poor
/// completion candidates; finer splits yield more focused ones).
constexpr size_t kMaxCompleteTasksPerSubquery = 8;

/// Key for deduplicating assignments offered to the crowd across
/// subqueries (the same partial assignment can surface from different
/// splits; a question is never repeated).
std::string AssignmentKey(const query::Assignment& a) {
  std::string key;
  for (size_t v = 0; v < a.num_vars(); ++v) {
    query::VarId var = static_cast<query::VarId>(v);
    if (!a.IsBound(var)) continue;
    // Ids dedup as well as rendered values (id equality is value equality)
    // without materializing anything.
    key += std::to_string(v) + "=" + std::to_string(a.IdOf(var)) + ";";
  }
  return key;
}

/// Inserts every ground atom of `q` under `a` that is absent from `db`,
/// recording insertion edits. When constraints are configured, each
/// insertion is first reconciled with the crowd; inadmissible facts are
/// skipped (the witness then stays incomplete and the caller's
/// satisfiability check reports failure).
common::Status InsertGroundAtoms(const query::CQuery& q,
                                 const query::Assignment& a,
                                 const InsertionConfig& config,
                                 crowd::CrowdPanel* crowd,
                                 relational::Database* db, EditList* edits) {
  for (const query::Atom& atom : q.atoms()) {
    std::optional<relational::Fact> fact = a.GroundAtom(atom);
    if (!fact.has_value()) continue;
    if (db->Contains(*fact)) continue;
    if (config.constraints != nullptr) {
      ConstraintEnforcer enforcer(config.constraints, crowd);
      QOCO_ASSIGN_OR_RETURN(ConstraintEnforcer::Reconciliation outcome,
                            enforcer.ReconcileInsertion(*fact, db));
      edits->insert(edits->end(), outcome.edits.begin(),
                    outcome.edits.end());
      if (!outcome.admissible) continue;
    }
    QOCO_RETURN_NOT_OK(db->Insert(*fact).status());
    edits->push_back(Edit::Insert(*fact));
  }
  return common::Status::OK();
}

/// Greedily extends `alpha` with bindings taken from facts of D: for every
/// atom of q_t that is partially resolved, the first matching fact of D
/// consistent with the resolvable inequalities is adopted. Since D is
/// mostly clean and complete (the premise of Section 5), the extension is
/// usually satisfiable and shrinks the number of variables the crowd must
/// fill.
query::Assignment GreedyExtendOverD(const query::CQuery& q_t,
                                    const query::Assignment& alpha,
                                    const query::Evaluator& evaluator) {
  query::Assignment extended = alpha;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < q_t.atoms().size(); ++i) {
      const query::Atom& atom = q_t.atoms()[i];
      bool any_resolved = false;
      bool all_resolved = true;
      for (const query::Term& term : atom.terms) {
        if (extended.Resolve(term).has_value()) {
          any_resolved = true;
        } else {
          all_resolved = false;
        }
      }
      if (all_resolved || !any_resolved) continue;
      std::vector<query::Assignment> exts =
          evaluator.FindExtensions(q_t.Subquery({i}), extended, 1);
      if (exts.empty()) continue;
      // Adopt only if every now-resolvable inequality still holds.
      bool consistent = true;
      for (const query::Inequality& ineq : q_t.inequalities()) {
        std::optional<bool> holds = exts.front().CheckInequality(ineq);
        if (holds.has_value() && !*holds) {
          consistent = false;
          break;
        }
      }
      if (consistent) {
        extended = std::move(exts.front());
        changed = true;
      }
    }
  }
  return extended;
}

}  // namespace

common::Result<InsertResult> AddMissingAnswer(
    const query::CQuery& q, relational::Database* db,
    const relational::Tuple& t, crowd::CrowdPanel* crowd,
    const InsertionConfig& config, common::Rng* rng) {
  InsertResult out;
  QOCO_ASSIGN_OR_RETURN(query::CQuery q_t, q.InstantiateAnswer(t));
  out.naive_upper_bound_vars = q_t.BodyVars().size();

  query::Evaluator evaluator(db);
  query::Assignment empty(q_t.num_vars(), &db->dict());

  // Lines 1-2: every all-constant atom of body(Q|t) occurs in *every*
  // witness of t, so given that t is a true answer these facts must be
  // true; insert them outright. The empty assignment grounds exactly those
  // atoms.
  QOCO_RETURN_NOT_OK(
      InsertGroundAtoms(q_t, empty, config, crowd, db, &out.edits));

  // Subqueries are explored most-selective first (fewest assignments over
  // D): their assignments are the most informative completion candidates,
  // in the spirit of "directing the crowd with facts existing in D".
  std::deque<query::CQuery> queue;
  auto push_split = [&](std::vector<query::CQuery> parts) {
    if (parts.size() == 2) {
      size_t limit = kMaxAssignmentsPerSubquery + 1;
      size_t count0 = evaluator.FindExtensions(parts[0], empty, limit).size();
      size_t count1 = evaluator.FindExtensions(parts[1], empty, limit).size();
      if (count1 < count0) std::swap(parts[0], parts[1]);
    }
    for (query::CQuery& sub : parts) queue.push_back(std::move(sub));
  };
  push_split(SplitQuery(q_t, *db, config.strategy, rng));

  std::set<std::string> offered;
  std::vector<query::VarId> body_vars = q_t.BodyVars();

  while (!evaluator.IsSatisfiable(q_t, empty) && !queue.empty()) {
    query::CQuery curr = std::move(queue.front());
    queue.pop_front();

    std::vector<query::Assignment> assignments =
        evaluator.FindExtensions(curr, empty, kMaxAssignmentsPerSubquery);
    size_t complete_tasks_left = kMaxCompleteTasksPerSubquery;
    for (const query::Assignment& alpha : assignments) {
      if (!offered.insert(AssignmentKey(alpha)).second) continue;
      if (!crowd->VerifyPartialBody(q_t, alpha)) continue;
      if (alpha.BindsAll(body_vars)) {
        // A total valid assignment of Q|t whose facts the crowd affirmed:
        // materialize the missing facts (line 9).
        QOCO_RETURN_NOT_OK(
            InsertGroundAtoms(q_t, alpha, config, crowd, db, &out.edits));
        out.succeeded = true;
        return out;
      }
      if (complete_tasks_left == 0) break;
      --complete_tasks_left;
      // Direct the crowd with facts existing in D: first offer the
      // greedily D-extended assignment (fewer blanks); fall back to the
      // raw subquery assignment if the extension turns out unsatisfiable.
      std::optional<query::Assignment> completion;
      if (config.data_directed_extension) {
        query::Assignment beta = GreedyExtendOverD(q_t, alpha, evaluator);
        if (!(beta == alpha)) {
          completion = crowd->Complete(q_t, beta);
        }
      }
      if (!completion.has_value()) {
        completion = crowd->Complete(q_t, alpha);
      }
      if (completion.has_value()) {
        QOCO_RETURN_NOT_OK(InsertGroundAtoms(q_t, *completion, config, crowd,
                                             db, &out.edits));
        out.succeeded = evaluator.IsSatisfiable(q_t, empty);
        if (out.succeeded) return out;
      }
    }

    if (curr.atoms().size() > 1) {
      push_split(SplitQuery(curr, *db, config.strategy, rng));
    }
  }

  if (evaluator.IsSatisfiable(q_t, empty)) {
    out.succeeded = true;
    return out;
  }

  // Line 18: fall back to asking the crowd for an entire witness.
  std::optional<query::Assignment> completion = crowd->Complete(q_t, empty);
  if (completion.has_value()) {
    QOCO_RETURN_NOT_OK(InsertGroundAtoms(q_t, *completion, config, crowd, db,
                                         &out.edits));
  }
  out.succeeded = evaluator.IsSatisfiable(q_t, empty);
  return out;
}

}  // namespace qoco::cleaning
