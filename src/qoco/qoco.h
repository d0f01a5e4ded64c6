#ifndef QOCO_QOCO_QOCO_H_
#define QOCO_QOCO_QOCO_H_

/// Umbrella header for the QOCO library: query-oriented data cleaning
/// with oracle crowds (Bergman, Milo, Novgorodov, Tan — SIGMOD 2015).
///
/// Most applications only need qoco::Session (src/qoco/session.h); the
/// individual subsystem headers below are for embedding the pieces
/// directly.

#include "src/cleaning/add_missing_answer.h"
#include "src/cleaning/aggregate_cleaner.h"
#include "src/cleaning/cleaner.h"
#include "src/cleaning/constraint_enforcer.h"
#include "src/cleaning/edit.h"
#include "src/cleaning/remove_wrong_answer.h"
#include "src/cleaning/split_strategy.h"
#include "src/cleaning/trust.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crowd/crowd_panel.h"
#include "src/crowd/enumeration_estimator.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/oracle.h"
#include "src/crowd/question_log.h"
#include "src/crowd/simulated_oracle.h"
#include "src/graph/graph.h"
#include "src/hittingset/hitting_set.h"
#include "src/provenance/whynot.h"
#include "src/provenance/witness.h"
#include "src/qoco/session.h"
#include "src/query/aggregate.h"
#include "src/query/evaluator.h"
#include "src/query/parser.h"
#include "src/query/query.h"
#include "src/relational/constraints.h"
#include "src/relational/csv.h"
#include "src/relational/database.h"
#include "src/relational/journal.h"
#include "src/relational/schema.h"

#endif  // QOCO_QOCO_QOCO_H_
