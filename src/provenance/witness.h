#ifndef QOCO_PROVENANCE_WITNESS_H_
#define QOCO_PROVENANCE_WITNESS_H_

#include <string>
#include <vector>

#include "src/relational/database.h"
#include "src/relational/tuple.h"
#include "src/relational/value_dictionary.h"
#include "src/relational/value_id.h"

namespace qoco::provenance {

/// A witness for a valid assignment α of query Q w.r.t. database D: the set
/// of facts in α(body(Q)), stored in id space (relational::IFact over the
/// catalog's shared ValueDictionary). Facts are kept sorted in *value*
/// order — the dictionary-mediated order identical to Fact::operator< —
/// and deduplicated, so witness equality (the join's witness dedup, the
/// incremental view's witness GC) is a flat integer compare, and a
/// witness's facts come in the order Algorithm 1 numbers its hitting-set
/// elements (DistinctFacts).
class Witness {
 public:
  Witness() = default;

  /// Builds a witness from id facts (sorts in value order and dedups).
  /// `dict` is the dictionary the ids live in; it must outlive the witness.
  Witness(std::vector<relational::IFact> facts,
          const relational::ValueDictionary* dict);

  /// Interning convenience for value-space callers (tests, boundaries).
  Witness(const std::vector<relational::Fact>& facts,
          relational::ValueDictionary* dict);

  const std::vector<relational::IFact>& facts() const { return facts_; }
  const relational::ValueDictionary* dict() const { return dict_; }
  size_t size() const { return facts_.size(); }
  bool empty() const { return facts_.empty(); }

  /// True iff the witness contains `fact`. A linear id compare: a witness
  /// holds at most one fact per query atom.
  bool Contains(const relational::IFact& fact) const;

  /// Materializes the facts back to value space, preserving order.
  std::vector<relational::Fact> MaterializeFacts() const;

  /// Id equality is value equality (shared dictionary, canonical sort).
  friend bool operator==(const Witness& a, const Witness& b) {
    return a.facts_ == b.facts_;
  }

  /// Renders as "{R(a, b), S(c)}".
  std::string ToString(const relational::Database& db) const;

 private:
  std::vector<relational::IFact> facts_;
  const relational::ValueDictionary* dict_ = nullptr;
};

/// Value-order comparator for whole witnesses (lexicographic over
/// IdFactLess): the deterministic order audits sort scratch copies with.
/// Deliberately not an operator<, so no raw-id ordering can be picked up
/// by accident.
struct WitnessLess {
  const relational::ValueDictionary* dict;
  bool operator()(const Witness& a, const Witness& b) const;
};

/// The why-provenance of an answer t: the set of (distinct) witnesses for
/// the assignments in A(t, Q, D).
using WitnessSet = std::vector<Witness>;

/// Distinct facts appearing across `witnesses`, sorted in value order.
/// This is the universe of the hitting-set instance in Section 4 and the
/// upper bound on verification questions (the naive algorithm verifies
/// each of them).
std::vector<relational::IFact> DistinctFacts(
    const WitnessSet& witnesses, const relational::ValueDictionary& dict);

}  // namespace qoco::provenance

#endif  // QOCO_PROVENANCE_WITNESS_H_
