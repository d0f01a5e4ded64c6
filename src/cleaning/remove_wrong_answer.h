#ifndef QOCO_CLEANING_REMOVE_WRONG_ANSWER_H_
#define QOCO_CLEANING_REMOVE_WRONG_ANSWER_H_

#include "src/cleaning/edit.h"
#include "src/cleaning/trust.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crowd/crowd_panel.h"
#include "src/provenance/witness.h"

namespace qoco::cleaning {

/// Which tuple the deletion algorithm verifies next (Section 7.2's
/// competitors).
enum class DeletionPolicy {
  /// Algorithm 1: most-frequent-tuple greedy plus the unique-minimal-
  /// hitting-set shortcut of Theorem 4.5 (singletons are deleted without
  /// questions, and the loop stops asking once the singletons hit
  /// everything).
  kQoco,
  /// QOCO-: the same greedy choice but without recognizing unique minimal
  /// hitting sets, so it keeps asking about every remaining tuple.
  kQocoMinus,
  /// Random baseline: verifies a uniformly random tuple among the tuples of
  /// the surviving witnesses.
  kRandom,
  /// Responsibility heuristic (Section 4 cites Meliou et al. [46]):
  /// verifies the tuple with the highest responsibility for the answer,
  /// r(f) = 1 / (1 + |Γ|) where Γ is a (greedily approximated) minimum
  /// contingency set — a smallest hitting set of the witnesses NOT
  /// containing f.
  kResponsibility,
  /// Least-trustworthy-first (Section 4's trust-score alternative);
  /// requires a TrustModel.
  kLeastTrusted,
};

/// Outcome of one answer-removal run.
struct RemoveResult {
  /// Deletion edits R(ā)- whose application removes `t` from Q(D). Not yet
  /// applied to the database.
  EditList edits;
  /// Number of distinct facts across the answer's witnesses: the upper
  /// bound paid by the naive algorithm that verifies every witness tuple
  /// (the total bar height in Figure 3a).
  size_t distinct_witness_facts = 0;
  /// Closed fact-verification questions this run asked.
  size_t questions_asked = 0;
};

/// Algorithm 1 (CrowdRemoveWrongAnswer): derives deletion edits that remove
/// the wrong answer t from Q(D) by interactively finding a hitting set of
/// false tuples over `witnesses`, t's witness set wit(A(t, Q, D)) (a union
/// answer passes the witnesses of every disjunct that produces it, so one
/// crowd question can prune across disjuncts).
///
/// The run depends only on the *set* of witnesses and the rng: the
/// hitting-set elements are numbered in value order and the witnesses
/// sorted and deduplicated before the first question, so the order and
/// repeats of `witnesses` never change an edit or a question.
///
/// Precondition: the crowd has already deemed t wrong (t ∉ Q(DG)); with a
/// perfect oracle the algorithm then always terminates with a hitting set
/// of false facts. `rng` breaks frequency ties (and drives kRandom);
/// `trust` is consulted only by kLeastTrusted (defaults to UniformTrust).
common::Result<RemoveResult> RemoveWrongAnswerFromWitnesses(
    const provenance::WitnessSet& witnesses, crowd::CrowdPanel* crowd,
    DeletionPolicy policy, common::Rng* rng,
    const TrustModel* trust = nullptr);

/// Human-readable policy name for experiment output.
const char* DeletionPolicyName(DeletionPolicy policy);

}  // namespace qoco::cleaning

#endif  // QOCO_CLEANING_REMOVE_WRONG_ANSWER_H_
