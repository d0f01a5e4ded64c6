#include "src/crowd/enumeration_estimator.h"

namespace qoco::crowd {

void EnumerationEstimator::RecordReply(
    const std::optional<relational::Tuple>& reply) {
  consecutive_nulls_ = reply.has_value() ? 0 : consecutive_nulls_ + 1;
}

bool EnumerationEstimator::IsLikelyComplete() const {
  return consecutive_nulls_ >= nulls_to_stop_;
}

}  // namespace qoco::crowd
