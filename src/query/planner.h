#ifndef QOCO_QUERY_PLANNER_H_
#define QOCO_QUERY_PLANNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/query/assignment.h"
#include "src/query/column_stats.h"
#include "src/query/query.h"
#include "src/relational/database.h"

namespace qoco::query {

/// One entry of a plan's predicted expansion order.
struct PlanStep {
  size_t atom = 0;             // Index into q.atoms().
  double est = 0.0;            // Estimated candidate rows when expanded.
  size_t bound_positions = 0;  // Argument positions resolved by then.
  bool connected = false;      // Shares a variable with the planned prefix.
};

/// An explicit evaluation plan: the root atom with its materialized (and
/// possibly semi-join-reduced) candidate list, per-variable allowed-id
/// sets, and for EXPLAIN the predicted order of the other atoms. Plans
/// are a pure function of the query, the initial binding, and the stats
/// snapshot, so identical inputs produce identical plans (the determinism
/// contract).
struct Plan {
  /// Provably empty result: a fully-resolved inequality fails under the
  /// initial binding, some resolved term's posting list is empty, or some
  /// shared variable's domain intersection is empty. Evaluation returns no
  /// assignments without running, which is exactly what executing would
  /// have produced.
  bool infeasible = false;
  /// No atoms: the initial binding itself is the only extension.
  bool trivial = false;

  /// steps[0] is the root, the only step the executor reads: below it,
  /// expansion re-ranks at each node over exact index counts. Only plans
  /// made with `predict_suffix` carry the remaining steps, the
  /// zero-information prediction EXPLAIN shows.
  std::vector<PlanStep> steps;

  /// Root candidate rows, in the exact order the scan visits them. Three
  /// representations, cheapest first: the implicit range [0, root_num_rows)
  /// (no resolved column), a posting list borrowed from the root's index
  /// (`root_posting` when `root_use_posting`; stays valid until the next
  /// mutation of the relation, and plans never outlive the evaluation that
  /// made them), or an owned filtered list (`root_materialized`; only when
  /// the semi-join reduction actually dropped candidates — the common
  /// unfiltered case never copies).
  bool root_use_posting = false;
  std::span<const uint32_t> root_posting;
  bool root_materialized = false;
  std::vector<uint32_t> root_candidates;
  size_t root_num_rows = 0;
  /// Probe column behind `root_posting` (meaningful when
  /// `root_use_posting`).
  size_t root_probe_column = 0;

  /// Semi-join reduction bookkeeping: whether the pass ran, and the root
  /// candidate count before filtering (== after, when the pass is off).
  bool semijoin = false;
  size_t root_prefilter = 0;

  /// allowed[v]: sorted id set that variable v must fall in — the
  /// intersection of the column domains of every atom slot containing v.
  /// Empty vector = unconstrained. Unification binding a fresh variable
  /// outside its allowed set fails immediately, pruning subtrees that
  /// cannot produce output (which is why the reduction is enumeration-
  /// order-preserving: it only ever removes zero-output work). Sets that
  /// would prune too little to repay the per-binding membership check are
  /// discarded at plan time (see kMinSemiJoinShrink in planner.cc).
  std::vector<std::vector<relational::ValueId>> allowed;

  size_t RootCandidateCount() const {
    if (root_materialized) return root_candidates.size();
    if (root_use_posting) return root_posting.size();
    return root_num_rows;
  }
  uint32_t RootCandidateAt(size_t i) const {
    if (root_materialized) return root_candidates[i];
    if (root_use_posting) return root_posting[i];
    return static_cast<uint32_t>(i);
  }

  /// Human-readable plan dump for EXPLAIN (QOCO_EXPLAIN=1) and tests: one
  /// line per step with the atom, estimate, and join evidence, plus root
  /// and semi-join details. Deterministic for a deterministic plan.
  std::string DebugString(const CQuery& q,
                          const relational::Catalog& catalog) const;
};

/// Greedy cost-based join-order planner over ColumnStats.
///
/// Root selection minimizes the *exact* candidate count of the first scan:
/// every term resolvable under the initial binding (constants and pre-bound
/// variables) probes its real posting list, a fully-resolved atom costs at
/// most one row (set semantics: at most one stored row can equal it), and
/// an unresolved atom costs its full row count. Ties prefer more resolved
/// positions, then the earlier atom — documented, deterministic, and
/// coinciding with the adaptive engine's choice whenever its
/// most-bound-first rule is also cardinality-optimal.
///
/// Suffix prediction ranks the remaining atoms by (connected to the prefix
/// first, then smallest estimate, then most bound positions, then earliest
/// index), estimating a plan-bound variable's probe with the column's
/// average posting length from ColumnStats.
class Planner {
 public:
  /// Both pointers must outlive the planner; `stats` is refreshed lazily
  /// on the calling thread.
  Planner(const relational::Database* db, const ColumnStats* stats)
      : db_(db), stats_(stats) {}

  /// Plans Q under `binding`. The executor reads only the root, so the
  /// suffix is predicted only with `predict_suffix` (EXPLAIN).
  Plan MakePlan(const CQuery& q, const Assignment& binding,
                bool predict_suffix = false) const;

 private:
  const relational::Database* db_;
  const ColumnStats* stats_;
};

}  // namespace qoco::query

#endif  // QOCO_QUERY_PLANNER_H_
