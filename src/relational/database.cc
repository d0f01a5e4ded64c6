#include "src/relational/database.h"

#include "src/common/invariant.h"

namespace qoco::relational {

Database::Database(const Catalog* catalog) : catalog_(catalog) {
  relations_.reserve(catalog_->size());
  for (size_t id = 0; id < catalog_->size(); ++id) {
    relations_.emplace_back(
        catalog_->schema(static_cast<RelationId>(id)).arity(),
        &catalog_->dict());
  }
}

namespace {

common::Status ValidateFact(const Catalog& catalog, const Fact& fact) {
  if (!catalog.IsValid(fact.relation)) {
    return common::Status::InvalidArgument("invalid relation id " +
                                           std::to_string(fact.relation));
  }
  size_t arity = catalog.schema(fact.relation).arity();
  if (fact.tuple.size() != arity) {
    return common::Status::InvalidArgument(
        "arity mismatch for relation '" +
        catalog.relation_name(fact.relation) + "': expected " +
        std::to_string(arity) + ", got " + std::to_string(fact.tuple.size()));
  }
  return common::Status::OK();
}

}  // namespace

common::Result<bool> Database::Insert(const Fact& fact) {
  QOCO_RETURN_NOT_OK(ValidateFact(*catalog_, fact));
  return relations_[static_cast<size_t>(fact.relation)].Insert(fact.tuple);
}

common::Result<bool> Database::Erase(const Fact& fact) {
  QOCO_RETURN_NOT_OK(ValidateFact(*catalog_, fact));
  return relations_[static_cast<size_t>(fact.relation)].Erase(fact.tuple);
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const Relation& r : relations_) total += r.size();
  return total;
}

std::vector<Fact> Database::AllFacts() const {
  std::vector<Fact> facts;
  facts.reserve(TotalFacts());
  const ValueDictionary& dict = catalog_->dict();
  for (size_t id = 0; id < relations_.size(); ++id) {
    for (const ITuple& t : relations_[id].rows()) {
      facts.push_back(
          Fact{static_cast<RelationId>(id), MaterializeTuple(t, dict)});
    }
  }
  return facts;
}

size_t Database::Distance(const Database& other) const {
  // Both instances share the catalog (hence the dictionary), so the
  // symmetric difference is computed entirely on ids.
  size_t diff = 0;
  for (size_t id = 0; id < relations_.size(); ++id) {
    const Relation& mine = relations_[id];
    const Relation& theirs = other.relations_[id];
    for (const ITuple& t : mine.rows()) {
      if (!theirs.ContainsIds(t)) ++diff;
    }
    for (const ITuple& t : theirs.rows()) {
      if (!mine.ContainsIds(t)) ++diff;
    }
  }
  return diff;
}

std::string Database::FactToString(const Fact& fact) const {
  return catalog_->relation_name(fact.relation) + TupleToString(fact.tuple);
}

common::Status Database::AuditInvariants() const {
  common::InvariantAuditor audit("relational::Database");
  // The shared dictionary is part of this instance's integrity: orphan-id
  // checks in the per-relation audits are only meaningful against a
  // self-consistent table.
  audit.Merge("dict", catalog_->dict().AuditInvariants());
  for (size_t id = 0; id < relations_.size(); ++id) {
    audit.Merge(catalog_->relation_name(static_cast<RelationId>(id)),
                relations_[id].AuditInvariants());
  }
  return audit.Finish();
}

}  // namespace qoco::relational
