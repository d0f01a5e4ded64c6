#include "src/query/column_stats.h"

#include <algorithm>

#include "src/common/invariant.h"

namespace qoco::query {

using relational::Relation;

ColumnStats::ColumnStats(const relational::Database* db)
    : db_(db), relations_(db->catalog().size()) {}

RelationSummary ColumnStats::Compute(const Relation& rel) {
  RelationSummary summary;
  summary.version = rel.version();
  summary.rows = rel.size();
  summary.columns.resize(rel.arity());
  for (size_t col = 0; col < rel.arity(); ++col) {
    ColumnSummary& c = summary.columns[col];
    c.domain = rel.ColumnPostings(col).SortedKeys();
    c.avg_posting = c.domain.empty()
                        ? 0.0
                        : static_cast<double>(rel.size()) /
                              static_cast<double>(c.domain.size());
  }
  return summary;
}

const RelationSummary& ColumnStats::ForRelation(
    relational::RelationId id) const {
  RelationSummary& cached = relations_[static_cast<size_t>(id)];
  const Relation& rel = db_->relation(id);
  if (cached.version != rel.version()) {
    cached = Compute(rel);
    ++refreshes_;
  }
  return cached;
}

common::Status ColumnStats::AuditInvariants() const {
  common::InvariantAuditor audit("query::ColumnStats");
  for (size_t i = 0; i < relations_.size(); ++i) {
    const RelationSummary& cached = relations_[i];
    const Relation& rel =
        db_->relation(static_cast<relational::RelationId>(i));
    if (cached.version == kStaleStatsVersion) continue;  // Never computed.
    if (cached.version != rel.version()) continue;       // Stale by design.
    const std::string& name =
        db_->catalog().relation_name(static_cast<relational::RelationId>(i));
    // The snapshot claims freshness: it must equal a recomputation.
    RelationSummary fresh = Compute(rel);
    if (cached.rows != fresh.rows) {
      audit.Violation() << name << ": snapshot stamped fresh counts "
                        << cached.rows << " rows, relation has "
                        << fresh.rows;
    }
    if (cached.columns.size() != fresh.columns.size()) {
      audit.Violation() << name << ": snapshot has "
                        << cached.columns.size() << " column summaries for "
                        << fresh.columns.size() << " columns";
      continue;
    }
    for (size_t col = 0; col < fresh.columns.size(); ++col) {
      const ColumnSummary& a = cached.columns[col];
      const ColumnSummary& b = fresh.columns[col];
      if (a.avg_posting != b.avg_posting) {
        audit.Violation() << name << " column " << col
                          << ": stale avg posting " << a.avg_posting
                          << " (live: " << b.avg_posting << ")";
      }
      if (a.domain != b.domain) {
        audit.Violation() << name << " column " << col
                          << ": stale domain (" << a.domain.size()
                          << " ids cached, " << b.domain.size() << " live)";
      }
      // qoco-lint: allow(id-order): domains are deliberately kept in raw-id order for galloping intersection; this audit asserts that invariant and the order never reaches output
      if (!std::is_sorted(a.domain.begin(), a.domain.end()) ||
          std::adjacent_find(a.domain.begin(), a.domain.end()) !=
              a.domain.end()) {
        audit.Violation() << name << " column " << col
                          << ": domain is not strictly ascending";
      }
    }
  }
  return audit.Finish();
}

}  // namespace qoco::query
