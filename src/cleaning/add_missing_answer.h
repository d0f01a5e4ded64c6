#ifndef QOCO_CLEANING_ADD_MISSING_ANSWER_H_
#define QOCO_CLEANING_ADD_MISSING_ANSWER_H_

#include "src/cleaning/edit.h"
#include "src/cleaning/split_strategy.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crowd/crowd_panel.h"
#include "src/query/query.h"
#include "src/relational/constraints.h"
#include "src/relational/database.h"

namespace qoco::cleaning {

/// Tuning knobs for Algorithm 2.
struct InsertionConfig {
  SplitStrategy strategy = SplitStrategy::kProvenance;
  /// When true, each candidate assignment is greedily extended with facts
  /// from D before the completion task is posted ("directing the crowd
  /// with facts existing in the underlying database", Section 5), reducing
  /// the variables the crowd must fill. Disable to measure the raw split
  /// strategies (see bench/ablation_insertion_extension).
  bool data_directed_extension = true;
  /// Optional key/foreign-key constraints (Section 9 future work). When
  /// set, every insertion is reconciled by a ConstraintEnforcer: key
  /// rivals are crowd-verified (false ones deleted), dangling references
  /// crowd-completed; inadmissible insertions are skipped.
  const relational::ConstraintSet* constraints = nullptr;
};

/// Outcome of one answer-insertion run.
struct InsertResult {
  /// Insertion edits already applied to the database (Algorithm 2 updates
  /// D as it goes, per lines 2, 9, 14 and 19 of the paper).
  EditList edits;
  /// Whether t ∈ Q(D) holds on return (with a perfect oracle it always
  /// does; an imperfect crowd may fail).
  bool succeeded = false;
  /// Number of distinct variables of Q|t: what the naive no-split approach
  /// would ask one expert to fill in the worst case (the total bar height
  /// in Figure 3b).
  size_t naive_upper_bound_vars = 0;
};

/// Algorithm 2 (CrowdAddMissingAnswer): derives and applies insertion edits
/// so the missing answer `t` appears in Q(D). Ground atoms of Q|t are
/// inserted up front (they belong to every witness of t, hence must be
/// true); then subqueries from recursive splitting are evaluated against D
/// and their assignments offered to the crowd for verification/completion;
/// finally the naive full-witness question serves as fallback.
common::Result<InsertResult> AddMissingAnswer(
    const query::CQuery& q, relational::Database* db,
    const relational::Tuple& t, crowd::CrowdPanel* crowd,
    const InsertionConfig& config, common::Rng* rng);

}  // namespace qoco::cleaning

#endif  // QOCO_CLEANING_ADD_MISSING_ANSWER_H_
