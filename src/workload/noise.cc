#include "src/workload/noise.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "src/query/evaluator.h"

namespace qoco::workload {

namespace {

using relational::Database;
using relational::Fact;
using relational::RelationId;
using relational::Tuple;
using relational::Value;

/// The active domains of the ground truth's columns, each materialized on
/// first use. The ground truth does not change while noise is drawn, so
/// every draw can read the same domain.
class ColumnDomains {
 public:
  explicit ColumnDomains(const Database& ground_truth)
      : ground_truth_(ground_truth) {}

  const std::vector<Value>& Get(RelationId relation, size_t column) {
    auto [it, inserted] = domains_.try_emplace({relation, column});
    if (inserted) {
      it->second = ground_truth_.relation(relation).ColumnDomain(column);
    }
    return it->second;
  }

 private:
  const Database& ground_truth_;
  std::map<std::pair<RelationId, size_t>, std::vector<Value>> domains_;
};

/// Fabricates a false fact by perturbing one column of a random true fact
/// (drawn from `pool`, the ground truth's facts) to another value from that
/// column's active domain. Returns a fact that is in neither `ground_truth`
/// nor `db`, or nullopt after too many tries.
std::optional<Fact> FabricateFalseFact(const Database& ground_truth,
                                       const std::vector<Fact>& pool,
                                       ColumnDomains* domains,
                                       const Database& db, common::Rng* rng) {
  if (pool.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 200; ++attempt) {
    Fact fact = pool[rng->Index(pool.size())];
    size_t column = rng->Index(fact.tuple.size());
    const std::vector<Value>& domain = domains->Get(fact.relation, column);
    if (domain.size() < 2) continue;
    fact.tuple[column] = domain[rng->Index(domain.size())];
    if (!ground_truth.Contains(fact) && !db.Contains(fact)) return fact;
  }
  return std::nullopt;
}

}  // namespace

common::Result<Database> MakeDirty(const Database& ground_truth,
                                   const NoiseParams& params) {
  if (params.cleanliness <= 0.0 || params.cleanliness > 1.0) {
    return common::Status::InvalidArgument("cleanliness must be in (0, 1]");
  }
  if (params.skew < 0.0 || params.skew > 1.0) {
    return common::Status::InvalidArgument("skew must be in [0, 1]");
  }
  common::Rng rng(params.seed);
  Database db = ground_truth;

  // cleanliness c = (T - m) / (T + f) with f = skew * E, m = (1-skew) * E
  // solves to E = T(1-c) / (1 - s + c*s).
  double t_count = static_cast<double>(ground_truth.TotalFacts());
  double c = params.cleanliness;
  double s = params.skew;
  double total_errors = t_count * (1.0 - c) / (1.0 - s + c * s);
  size_t f = static_cast<size_t>(std::llround(s * total_errors));
  size_t m = static_cast<size_t>(std::llround((1.0 - s) * total_errors));

  // Remove m random true facts.
  std::vector<Fact> facts = db.AllFacts();
  rng.Shuffle(&facts);
  for (size_t i = 0; i < m && i < facts.size(); ++i) {
    QOCO_RETURN_NOT_OK(db.Erase(facts[i]).status());
  }
  // Add f fabricated false facts.
  const std::vector<Fact> pool = ground_truth.AllFacts();
  ColumnDomains domains(ground_truth);
  for (size_t i = 0; i < f; ++i) {
    std::optional<Fact> fake =
        FabricateFalseFact(ground_truth, pool, &domains, db, &rng);
    if (!fake.has_value()) break;
    QOCO_RETURN_NOT_OK(db.Insert(*fake).status());
  }
  return db;
}

namespace {

/// All current answers of q over db, as a sorted tuple list.
std::vector<Tuple> Answers(const query::CQuery& q, const Database& db) {
  query::Evaluator evaluator(&db);
  return evaluator.Evaluate(q).AnswerTuples();
}

std::vector<Tuple> SetMinus(const std::vector<Tuple>& a,
                            const std::vector<Tuple>& b) {
  std::vector<Tuple> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// Injects fabricated false facts (one perturbed column of a fact drawn
/// from the witnesses of current answers) until the query has exactly
/// `num_wrong` wrong answers. Mirrors the paper's setup, where controlled
/// noise is added to the data until the result exhibits the desired number
/// of wrong answers; because the noise accretes around true witnesses, the
/// wrong answers acquire an organic multi-witness structure.
common::Status PlantWrongAnswersByNoise(const query::CQuery& q,
                                        const Database& ground_truth,
                                        Database* db,
                                        const std::vector<Tuple>& truth_answers,
                                        size_t num_wrong, common::Rng* rng) {
  std::vector<Tuple> wrong_list = SetMinus(Answers(q, *db), truth_answers);
  size_t wrong_count = wrong_list.size();
  // Noise budget: how many false facts may accumulate beyond the strictly
  // answer-creating ones (they thicken witness sets, as real noise does).
  size_t noise_budget = 8 * num_wrong + 8;
  size_t max_attempts = 400 * (num_wrong + 1);
  size_t stalled_attempts = 0;
  ColumnDomains domains(ground_truth);
  for (size_t attempt = 0;
       attempt < max_attempts && wrong_count < num_wrong; ++attempt) {
    query::Evaluator eval(db);
    query::EvalResult result = eval.Evaluate(q);
    if (result.answers().empty()) break;
    // Half the noise accretes around already-wrong answers (thickening
    // their witness sets, the way repeated scraping errors cluster); the
    // rest perturbs arbitrary answers to mint new wrong ones.
    const query::AnswerInfo* donor_ptr = nullptr;
    if (!wrong_list.empty() && rng->Chance(0.5)) {
      donor_ptr = result.Find(wrong_list[rng->Index(wrong_list.size())]);
    }
    if (donor_ptr == nullptr) {
      donor_ptr = &result.answers()[rng->Index(result.answers().size())];
    }
    const query::AnswerInfo& donor = *donor_ptr;
    if (donor.witnesses.empty()) continue;
    const provenance::Witness& witness =
        donor.witnesses[rng->Index(donor.witnesses.size())];
    Fact fact = relational::MaterializeFact(
        witness.facts()[rng->Index(witness.facts().size())], *witness.dict());
    size_t column = rng->Index(fact.tuple.size());
    const std::vector<Value>* domain = &domains.Get(fact.relation, column);
    // When every in-domain substitution keeps minting true answers (a
    // saturated query such as "teams that lost two games"), escalate the
    // rate of fabricated out-of-domain values (scraping artifacts).
    double bogus_chance = stalled_attempts > 50 ? 0.5 : 0.05;
    std::vector<Value> bogus;
    if (rng->Chance(bogus_chance) || domain->size() < 2) {
      // Draw fabricated values from a small pool so that repeated
      // fabrications can collide and jointly form witnesses (self-join
      // queries need the same phantom entity twice).
      bogus.assign(
          1, Value("bogus_" + std::to_string(rng->Uniform(
                       0, static_cast<int64_t>(num_wrong)))));
      domain = &bogus;
    }
    fact.tuple[column] = (*domain)[rng->Index(domain->size())];
    if (ground_truth.Contains(fact) || db->Contains(fact)) continue;
    QOCO_RETURN_NOT_OK(db->Insert(fact).status());
    std::vector<Tuple> wrong_now = SetMinus(Answers(q, *db), truth_answers);
    if (wrong_now.size() > num_wrong) {
      QOCO_RETURN_NOT_OK(db->Erase(fact).status());
      ++stalled_attempts;
      continue;
    }
    if (wrong_now.size() == wrong_count) {
      // Pure noise: keep it while the budget lasts (it thickens witness
      // sets of other answers), else roll back.
      ++stalled_attempts;
      if (noise_budget > 0) {
        --noise_budget;
      } else {
        QOCO_RETURN_NOT_OK(db->Erase(fact).status());
        continue;
      }
    } else {
      stalled_attempts = 0;
    }
    wrong_count = wrong_now.size();
    wrong_list = std::move(wrong_now);
  }

  // Second phase: spend the remaining noise budget thickening the witness
  // sets of the wrong answers without changing the answer set, mimicking
  // how repeated extraction errors pile up around the same entities.
  for (size_t attempt = 0;
       attempt < 40 * (num_wrong + 1) && noise_budget > 0 && !wrong_list.empty();
       ++attempt) {
    query::Evaluator eval(db);
    query::EvalResult result = eval.Evaluate(q);
    const query::AnswerInfo* donor =
        result.Find(wrong_list[rng->Index(wrong_list.size())]);
    if (donor == nullptr || donor->witnesses.empty()) continue;
    const provenance::Witness& witness =
        donor->witnesses[rng->Index(donor->witnesses.size())];
    Fact fact = relational::MaterializeFact(
        witness.facts()[rng->Index(witness.facts().size())], *witness.dict());
    size_t column = rng->Index(fact.tuple.size());
    const std::vector<Value>& domain = domains.Get(fact.relation, column);
    if (domain.size() < 2) continue;
    fact.tuple[column] = domain[rng->Index(domain.size())];
    if (ground_truth.Contains(fact) || db->Contains(fact)) continue;
    QOCO_RETURN_NOT_OK(db->Insert(fact).status());
    std::vector<Tuple> now = SetMinus(Answers(q, *db), truth_answers);
    if (now != wrong_list) {
      QOCO_RETURN_NOT_OK(db->Erase(fact).status());
      continue;
    }
    --noise_budget;
  }
  return common::Status::OK();
}

/// Deletes facts until `victim` is no longer an answer, preferring facts
/// whose removal does not destroy other answers.
common::Status RemoveAnswerByDeletion(const query::CQuery& q, Database* db,
                                      const Tuple& victim, common::Rng* rng) {
  (void)rng;
  for (int guard = 0; guard < 64; ++guard) {
    query::Evaluator evaluator(db);
    query::EvalResult result = evaluator.Evaluate(q);
    const query::AnswerInfo* info = result.Find(victim);
    if (info == nullptr) return common::Status::OK();

    // Collateral of deleting fact f: the number of *other* answers all of
    // whose witnesses contain f. Containment checks run on ids; only the
    // fact finally erased is materialized.
    std::vector<relational::IFact> candidates =
        provenance::DistinctFacts(info->witnesses, db->dict());
    const relational::IFact* best = nullptr;
    size_t best_collateral = 0;
    size_t best_coverage = 0;
    for (const relational::IFact& fact : candidates) {
      size_t collateral = 0;
      for (const query::AnswerInfo& other : result.answers()) {
        if (other.tuple == victim) continue;
        bool all_contain = !other.witnesses.empty();
        for (const provenance::Witness& w : other.witnesses) {
          if (!w.Contains(fact)) {
            all_contain = false;
            break;
          }
        }
        if (all_contain) ++collateral;
      }
      size_t coverage = 0;
      for (const provenance::Witness& w : info->witnesses) {
        if (w.Contains(fact)) ++coverage;
      }
      if (best == nullptr || collateral < best_collateral ||
          (collateral == best_collateral && coverage > best_coverage)) {
        best = &fact;
        best_collateral = collateral;
        best_coverage = coverage;
      }
    }
    if (best == nullptr) return common::Status::OK();
    QOCO_RETURN_NOT_OK(
        db->Erase(relational::MaterializeFact(*best, db->dict())).status());
  }
  return common::Status::Internal("failed to remove planted missing answer");
}

}  // namespace

common::Result<PlantedErrors> PlantErrors(const query::CQuery& q,
                                          const Database& ground_truth,
                                          size_t num_wrong,
                                          size_t num_missing, uint64_t seed) {
  common::Rng rng(seed);
  Database db = ground_truth;
  std::vector<Tuple> truth_answers = Answers(q, ground_truth);

  // Plant wrong answers first, while the full set of true witnesses is
  // available as noise donors.
  QOCO_RETURN_NOT_OK(PlantWrongAnswersByNoise(q, ground_truth, &db,
                                              truth_answers, num_wrong, &rng));

  // Then plant missing answers by deleting low-collateral witness facts of
  // random true answers.
  std::vector<Tuple> victims = truth_answers;
  rng.Shuffle(&victims);
  size_t planted_missing = 0;
  for (const Tuple& victim : victims) {
    if (planted_missing >= num_missing) break;
    QOCO_RETURN_NOT_OK(RemoveAnswerByDeletion(q, &db, victim, &rng));
    ++planted_missing;
  }

  PlantedErrors out{std::move(db), {}, {}};
  std::vector<Tuple> current = Answers(q, out.db);
  out.wrong = SetMinus(current, truth_answers);
  out.missing = SetMinus(truth_answers, current);
  return out;
}

}  // namespace qoco::workload
