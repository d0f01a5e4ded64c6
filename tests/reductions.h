#ifndef QOCO_TESTS_REDUCTIONS_H_
#define QOCO_TESTS_REDUCTIONS_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/hittingset/hitting_set.h"
#include "src/query/query.h"
#include "src/relational/database.h"
#include "src/relational/schema.h"

/// The NP-hardness gadgets of Theorems 4.2 and 5.2, which only
/// reductions_test.cc builds: test code, compiled into that test alone.

namespace qoco::cleaning {

/// A self-contained (catalog, D, DG, Q, target answer) bundle produced by
/// the hardness reductions. The catalog is owned here; databases reference
/// it.
struct ReductionInstance {
  std::unique_ptr<relational::Catalog> catalog;
  std::unique_ptr<relational::Database> dirty;
  std::unique_ptr<relational::Database> ground_truth;
  query::CQuery query;
  relational::Tuple target;
};

/// Theorem 4.2's reduction from Hitting Set: builds (D, DG, Q, t) such that
/// t = (d) is a wrong answer of Q over D and any set of k fact-deletion
/// questions removing t corresponds to a hitting set of size <= k of the
/// input instance (and vice versa). Elements u_i become unary relations
/// R_i = {u_i, d}; each set S_j becomes a characteristic-vector fact of the
/// wide relation R.
common::Result<ReductionInstance> BuildDeletionHardnessInstance(
    const hittingset::Instance& instance);

/// A 3-CNF clause over variables [0, num_vars): three literals, each a
/// variable index with a sign (true = positive).
struct Clause3 {
  int var[3];
  bool positive[3];
};

/// Theorem 5.2's reduction from One-3SAT: builds (D = ∅, DG, Q, t) such
/// that t = (d) is a missing answer and inserting one verified fact per
/// clause relation (|Φ| questions) yields t iff the chosen facts encode a
/// satisfying assignment of Φ.
common::Result<ReductionInstance> BuildInsertionHardnessInstance(
    const std::vector<Clause3>& clauses, int num_vars);

}  // namespace qoco::cleaning

#endif  // QOCO_TESTS_REDUCTIONS_H_
