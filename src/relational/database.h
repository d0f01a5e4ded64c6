#ifndef QOCO_RELATIONAL_DATABASE_H_
#define QOCO_RELATIONAL_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/relational/relation.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"

namespace qoco::relational {

/// A database instance over a shared Catalog: one Relation per catalog
/// entry.
///
/// The dirty database D and the ground truth DG of the paper are two
/// Database objects over the same Catalog; Distance() computes the symmetric
/// difference |D - D'| + |D' - D| used by Proposition 3.3 (note the paper
/// writes |D - D'| for the symmetric difference).
class Database {
 public:
  /// Constructs an empty instance over `catalog`. The catalog must outlive
  /// the database and must not grow afterwards.
  explicit Database(const Catalog* catalog);

  /// Deep copy.
  Database(const Database& other) = default;
  Database& operator=(const Database& other) = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Catalog& catalog() const { return *catalog_; }

  /// The value dictionary shared by every instance over this catalog.
  ValueDictionary& dict() const { return catalog_->dict(); }

  /// The relation instance for `id`. Precondition: catalog().IsValid(id).
  const Relation& relation(RelationId id) const {
    return relations_[static_cast<size_t>(id)];
  }

  /// True iff the fact is in this instance.
  bool Contains(const Fact& fact) const {
    return relation(fact.relation).Contains(fact.tuple);
  }

  /// Id-space membership probe (shared-dictionary twin of Contains).
  bool ContainsIds(const IFact& fact) const {
    return relation(fact.relation).ContainsIds(fact.tuple);
  }

  /// Inserts a fact (idempotent; returns whether anything changed).
  /// Returns InvalidArgument on arity mismatch or bad relation id.
  common::Result<bool> Insert(const Fact& fact);

  /// Erases a fact (idempotent; returns whether anything changed).
  common::Result<bool> Erase(const Fact& fact);

  /// Total number of facts across relations.
  size_t TotalFacts() const;

  /// All facts, materialized (for diffing/tests; O(total facts)).
  std::vector<Fact> AllFacts() const;

  /// Size of the symmetric difference with `other` (same catalog required).
  size_t Distance(const Database& other) const;

  /// Renders the fact as "Rel(v1, v2, ...)" using the catalog.
  std::string FactToString(const Fact& fact) const;

  /// Runs Relation::AuditInvariants on every relation; violations are
  /// prefixed with the relation's catalog name.
  common::Status AuditInvariants() const;

 private:
  const Catalog* catalog_;
  std::vector<Relation> relations_;
};

}  // namespace qoco::relational

#endif  // QOCO_RELATIONAL_DATABASE_H_
