#ifndef QOCO_HITTINGSET_HITTING_SET_H_
#define QOCO_HITTINGSET_HITTING_SET_H_

#include <optional>
#include <vector>

#include "src/common/status.h"

namespace qoco::hittingset {

/// A hitting-set instance (U, S): universe elements are ints
/// [0, num_elements); each set is a vector of elements (order is
/// irrelevant; duplicates within a set only skew MostFrequentElements
/// counts). In Section 4 the universe is the facts appearing in witnesses
/// of a wrong answer and the sets are the witnesses.
struct Instance {
  size_t num_elements = 0;
  std::vector<std::vector<int>> sets;
};

/// True iff `h` hits every set of the instance.
bool IsHittingSet(const Instance& instance, const std::vector<int>& h);

/// True iff `h` is a hitting set and no proper subset of it is.
bool IsMinimalHittingSet(const Instance& instance, const std::vector<int>& h);

/// Theorem 4.5: a unique minimal hitting set exists iff the elements of the
/// singleton sets of S form a hitting set; in that case it is exactly those
/// elements. Returns that set (sorted) or nullopt. An instance with no sets
/// has the empty set as its unique minimal hitting set.
std::optional<std::vector<int>> UniqueMinimalHittingSet(
    const Instance& instance);

/// Every element occurring in the largest number of sets, in ascending
/// order; empty if the sets hold no element. This is the greedy selection
/// rule of Algorithm 1: a cleaning session draws one of them with its rng.
std::vector<int> MostFrequentElements(
    const std::vector<std::vector<int>>& sets);

/// The smallest of MostFrequentElements(sets), or -1 if there is none.
int MostFrequentElement(const std::vector<std::vector<int>>& sets);

/// Greedy hitting set: repeatedly take the most frequent element and drop
/// the sets it hits. Returns a (not necessarily minimal) hitting set.
std::vector<int> GreedyHittingSet(const Instance& instance);

/// Exact minimum hitting set by branch and bound; exponential, intended for
/// small instances (tests, ablation baselines). Returns a hitting set of
/// minimum cardinality (sorted).
std::vector<int> ExactMinimumHittingSet(const Instance& instance);

/// Deep audit of a hitting set `h` against `instance`: h must hit every
/// set (every witness), contain no duplicates, and — when the instance
/// declares a universe (num_elements > 0) — only in-range elements.
/// GreedyHittingSet / ExactMinimumHittingSet / UniqueMinimalHittingSet
/// QOCO_DCHECK this on their own results; corruption-injection tests and
/// callers handing crowd-derived sets around use it directly. Returns OK or
/// a kInternal Status listing every violation.
common::Status AuditHittingSet(const Instance& instance,
                               const std::vector<int>& h);

}  // namespace qoco::hittingset

#endif  // QOCO_HITTINGSET_HITTING_SET_H_
