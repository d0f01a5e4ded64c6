#include "src/provenance/witness.h"

#include <algorithm>

namespace qoco::provenance {

using relational::IdFactLess;
using relational::IFact;

Witness::Witness(std::vector<IFact> facts,
                 const relational::ValueDictionary* dict)
    : facts_(std::move(facts)), dict_(dict) {
  std::sort(facts_.begin(), facts_.end(), IdFactLess{dict_});
  facts_.erase(std::unique(facts_.begin(), facts_.end()), facts_.end());
}

Witness::Witness(const std::vector<relational::Fact>& facts,
                 relational::ValueDictionary* dict)
    : dict_(dict) {
  facts_.reserve(facts.size());
  for (const relational::Fact& f : facts) {
    facts_.push_back(relational::InternFact(f, dict));
  }
  std::sort(facts_.begin(), facts_.end(), IdFactLess{dict_});
  facts_.erase(std::unique(facts_.begin(), facts_.end()), facts_.end());
}

bool Witness::Contains(const IFact& fact) const {
  return std::find(facts_.begin(), facts_.end(), fact) != facts_.end();
}

std::vector<relational::Fact> Witness::MaterializeFacts() const {
  std::vector<relational::Fact> out;
  out.reserve(facts_.size());
  for (const IFact& f : facts_) {
    out.push_back(relational::MaterializeFact(f, *dict_));
  }
  return out;
}

std::string Witness::ToString(const relational::Database& db) const {
  std::string out = "{";
  for (size_t i = 0; i < facts_.size(); ++i) {
    if (i > 0) out += ", ";
    out += db.FactToString(relational::MaterializeFact(facts_[i], db.dict()));
  }
  out += "}";
  return out;
}

bool WitnessLess::operator()(const Witness& a, const Witness& b) const {
  IdFactLess fact_less{dict};
  return std::lexicographical_compare(a.facts().begin(), a.facts().end(),
                                      b.facts().begin(), b.facts().end(),
                                      fact_less);
}

std::vector<IFact> DistinctFacts(const WitnessSet& witnesses,
                                 const relational::ValueDictionary& dict) {
  std::vector<IFact> all;
  for (const Witness& w : witnesses) {
    all.insert(all.end(), w.facts().begin(), w.facts().end());
  }
  std::sort(all.begin(), all.end(), IdFactLess{&dict});
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace qoco::provenance
