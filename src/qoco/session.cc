#include "src/qoco/session.h"

#include <utility>

#include "src/query/parser.h"

namespace qoco {

Session::Session(relational::Database* db,
                 std::vector<crowd::Oracle*> members, Options options)
    : db_(db),
      options_(options),
      panel_(std::move(members), options.panel),
      rng_(options.seed) {}

void Session::JournalEdits(const cleaning::EditList& edits) {
  for (const cleaning::Edit& e : edits) {
    journal_.Append(e.kind == cleaning::Edit::Kind::kInsert, e.fact,
                    db_->catalog());
  }
}

common::Result<cleaning::CleanerStats> Session::CleanView(
    std::string_view query_text) {
  QOCO_ASSIGN_OR_RETURN(query::CQuery q,
                        query::ParseQuery(query_text, db_->catalog()));
  return CleanView(q);
}

common::Result<cleaning::CleanerStats> Session::CleanView(
    const query::CQuery& q, const query::ViewSeed* seed) {
  cleaning::QocoCleaner cleaner(q, db_, &panel_, options_.cleaner,
                                rng_.Fork(), seed);
  QOCO_ASSIGN_OR_RETURN(cleaning::CleanerStats stats, cleaner.Run());
  JournalEdits(stats.edits);
  return stats;
}

common::Result<cleaning::CleanerStats> Session::CleanUnionView(
    std::string_view query_text) {
  QOCO_ASSIGN_OR_RETURN(query::UnionQuery q,
                        query::ParseUnionQuery(query_text, db_->catalog()));
  return CleanUnionView(q);
}

common::Result<cleaning::CleanerStats> Session::CleanUnionView(
    const query::UnionQuery& q) {
  cleaning::UnionCleaner cleaner(q, db_, &panel_, options_.cleaner,
                                 rng_.Fork());
  QOCO_ASSIGN_OR_RETURN(cleaning::CleanerStats stats, cleaner.Run());
  JournalEdits(stats.edits);
  return stats;
}

common::Result<cleaning::CleanerStats> Session::CleanAggregateView(
    const query::AggregateQuery& q) {
  cleaning::AggregateCleaner cleaner(q, db_, &panel_, options_.cleaner,
                                     rng_.Fork());
  QOCO_ASSIGN_OR_RETURN(cleaning::CleanerStats stats, cleaner.Run());
  JournalEdits(stats.edits);
  return stats;
}

}  // namespace qoco
