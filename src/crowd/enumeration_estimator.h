#ifndef QOCO_CROWD_ENUMERATION_ESTIMATOR_H_
#define QOCO_CROWD_ENUMERATION_ESTIMATOR_H_

#include <cstddef>
#include <optional>

#include "src/relational/tuple.h"

namespace qoco::crowd {

/// The "enumeration black-box" of Section 6.1 (after Trushkowsky et al.
/// [61]): decides when COMPL(Q(D)) questions should stop because the query
/// result is complete with high probability. It stops after a run of
/// `nulls_to_stop` consecutive "nothing is missing" replies (for a perfect
/// oracle one null suffices).
class EnumerationEstimator {
 public:
  explicit EnumerationEstimator(size_t nulls_to_stop = 1)
      : nulls_to_stop_(nulls_to_stop) {}

  /// Records one reply to a COMPL(Q(D)) question (nullopt = "complete").
  void RecordReply(const std::optional<relational::Tuple>& reply);

  /// True when further enumeration questions are unnecessary.
  bool IsLikelyComplete() const;

 private:
  size_t nulls_to_stop_;
  size_t consecutive_nulls_ = 0;
};

}  // namespace qoco::crowd

#endif  // QOCO_CROWD_ENUMERATION_ESTIMATOR_H_
