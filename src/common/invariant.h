#ifndef QOCO_COMMON_INVARIANT_H_
#define QOCO_COMMON_INVARIANT_H_

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace qoco::common {

/// Failure accumulator for the deep AuditInvariants() methods
/// (relational::Relation, query::IncrementalView, the hitting-set module).
///
/// An audit walks a structure, streams one Violation() per broken
/// invariant, and returns Finish(): OK when nothing was recorded, otherwise
/// a kInternal Status whose message names the audited subject and lists
/// every violation — so a single fuzz failure reports all the damage, not
/// just the first broken field.
///
///   common::InvariantAuditor audit("relational::Relation");
///   if (occupied != rows_.size()) {
///     audit.Violation() << "membership has " << occupied << " entries for "
///                       << rows_.size() << " rows";
///   }
///   return audit.Finish();
class InvariantAuditor {
 public:
  explicit InvariantAuditor(std::string subject)
      : subject_(std::move(subject)) {}
  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Starts a new violation record; stream its description into the result.
  std::ostream& Violation();

  /// Copies every violation of `status` (a nested audit's Finish result)
  /// into this auditor, prefixed with `prefix`. OK statuses add nothing.
  void Merge(const std::string& prefix, const Status& status);

  bool ok() const { return violations_.empty(); }
  size_t violation_count() const { return violations_.size(); }

  /// OK when no violation was recorded, otherwise kInternal listing all of
  /// them: "<subject>: invariant audit found N violation(s): ...".
  Status Finish() const;

 private:
  std::string subject_;
  // unique_ptr because ostringstream is not copyable and Violation() hands
  // out stable references while the vector grows.
  std::vector<std::unique_ptr<std::ostringstream>> violations_;
};

/// Cadence helper for periodic audits in long loops: Tick() returns true on
/// the first call and then every `period` calls. A period of 0 audits every
/// step.
class AuditTicker {
 public:
  explicit AuditTicker(size_t period) : period_(period == 0 ? 1 : period) {}

  bool Tick() { return count_++ % period_ == 0; }

 private:
  size_t period_;
  size_t count_ = 0;
};

}  // namespace qoco::common

#endif  // QOCO_COMMON_INVARIANT_H_
