#include "src/cleaning/remove_wrong_answer.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/hittingset/hitting_set.h"

namespace qoco::cleaning {

namespace {

using relational::Fact;
using relational::IFact;

/// Working state: the hitting-set instance over t's witness set, plus the
/// element -> fact map for the boundaries that need values (edits, trust
/// scores, crowd questions).
struct WitnessState {
  std::vector<Fact> facts;              // element -> fact (materialized)
  std::vector<std::vector<int>> sets;   // surviving witnesses
};

/// Numbers the distinct witness facts in value order (the universe of
/// provenance::DistinctFacts), maps each witness to its sorted element
/// vector, and sorts and deduplicates the list of sets. The instance is
/// thus a function of the witness *set*: neither the order nor repeats of
/// `witnesses` reach a question.
WitnessState BuildState(const provenance::WitnessSet& witnesses) {
  WitnessState state;
  if (witnesses.empty()) return state;
  const relational::ValueDictionary& dict = *witnesses.front().dict();
  const relational::IdFactLess less{&dict};
  std::vector<IFact> universe = provenance::DistinctFacts(witnesses, dict);
  state.facts.reserve(universe.size());
  for (const IFact& f : universe) {
    state.facts.push_back(relational::MaterializeFact(f, dict));
  }
  state.sets.reserve(witnesses.size());
  for (const provenance::Witness& w : witnesses) {
    // A witness's facts are sorted in value order too, so its elements
    // come out ascending.
    std::vector<int> set;
    set.reserve(w.size());
    for (const IFact& f : w.facts()) {
      auto it = std::lower_bound(universe.begin(), universe.end(), f, less);
      set.push_back(static_cast<int>(it - universe.begin()));
    }
    state.sets.push_back(std::move(set));
  }
  std::sort(state.sets.begin(), state.sets.end());
  state.sets.erase(std::unique(state.sets.begin(), state.sets.end()),
                   state.sets.end());
  return state;
}

/// Removes every set containing `element`.
void DropSetsContaining(int element, std::vector<std::vector<int>>* sets) {
  std::erase_if(*sets, [element](const std::vector<int>& s) {
    return std::binary_search(s.begin(), s.end(), element);
  });
}

/// Removes `element` from every set (the tuple was verified true).
void EraseElementFromSets(int element, std::vector<std::vector<int>>* sets) {
  for (std::vector<int>& s : *sets) {
    auto it = std::lower_bound(s.begin(), s.end(), element);
    if (it != s.end() && *it == element) s.erase(it);
  }
}

/// The element occurring in the most surviving sets, ties broken uniformly
/// at random by `rng`.
int PickMostFrequent(const std::vector<std::vector<int>>& sets,
                     common::Rng* rng) {
  std::vector<int> candidates = hittingset::MostFrequentElements(sets);
  return candidates[rng->Index(candidates.size())];
}

int PickRandom(const std::vector<std::vector<int>>& sets, common::Rng* rng) {
  std::set<int> alive;
  for (const auto& s : sets) alive.insert(s.begin(), s.end());
  std::vector<int> candidates(alive.begin(), alive.end());
  return candidates[rng->Index(candidates.size())];
}

/// Responsibility of element f (Meliou et al.): 1 / (1 + |Γ|) with Γ a
/// greedily approximated minimum hitting set of the sets NOT containing f
/// (removing Γ makes f counterfactual for the answer). Picks the element
/// with maximum responsibility; ties fall back to frequency then rng.
int PickMostResponsible(const std::vector<std::vector<int>>& sets,
                        common::Rng* rng) {
  std::set<int> alive;
  for (const auto& s : sets) alive.insert(s.begin(), s.end());
  int best = -1;
  size_t best_contingency = 0;
  std::vector<int> ties;
  for (int f : alive) {
    hittingset::Instance rest;
    for (const auto& s : sets) {
      if (std::find(s.begin(), s.end(), f) == s.end()) rest.sets.push_back(s);
    }
    size_t contingency = hittingset::GreedyHittingSet(rest).size();
    if (best == -1 || contingency < best_contingency) {
      best = f;
      best_contingency = contingency;
      ties.assign(1, f);
    } else if (contingency == best_contingency) {
      ties.push_back(f);
    }
  }
  if (ties.size() > 1) {
    // Tie-break toward the most frequent among the tied elements.
    std::map<int, size_t> counts;
    for (const auto& s : sets) {
      for (int e : s) ++counts[e];
    }
    size_t best_count = 0;
    std::vector<int> frequent;
    for (int f : ties) best_count = std::max(best_count, counts[f]);
    for (int f : ties) {
      if (counts[f] == best_count) frequent.push_back(f);
    }
    return frequent[rng->Index(frequent.size())];
  }
  return best;
}

/// Least-trusted-first selection over the alive elements.
int PickLeastTrusted(const std::vector<std::vector<int>>& sets,
                     const std::vector<Fact>& facts, const TrustModel& trust,
                     common::Rng* rng) {
  std::set<int> alive;
  for (const auto& s : sets) alive.insert(s.begin(), s.end());
  int best = -1;
  double best_trust = 0;
  std::vector<int> ties;
  for (int f : alive) {
    double score = trust.Trust(facts[static_cast<size_t>(f)]);
    if (best == -1 || score < best_trust) {
      best = f;
      best_trust = score;
      ties.assign(1, f);
    } else if (score == best_trust) {
      ties.push_back(f);
    }
  }
  return ties[rng->Index(ties.size())];
}

}  // namespace

common::Result<RemoveResult> RemoveWrongAnswerFromWitnesses(
    const provenance::WitnessSet& witnesses, crowd::CrowdPanel* crowd,
    DeletionPolicy policy, common::Rng* rng, const TrustModel* trust) {
  static const UniformTrust kUniformTrust;
  if (trust == nullptr) trust = &kUniformTrust;
  RemoveResult out;
  WitnessState state = BuildState(witnesses);
  out.distinct_witness_facts = state.facts.size();

  std::set<int> deleted;
  auto record_deletion = [&](int element) {
    if (deleted.insert(element).second) {
      out.edits.push_back(Edit::Delete(state.facts[static_cast<size_t>(element)]));
    }
  };

  size_t questions_before = crowd->counts().verify_fact;

  while (!state.sets.empty()) {
    if (policy == DeletionPolicy::kQoco) {
      // Lines 2-4: every singleton's sole tuple must be false (any hitting
      // set contains it); delete it without asking and drop the sets it
      // hits. Via Theorem 4.5 this also silences the loop as soon as a
      // unique minimal hitting set exists.
      bool found_singleton = true;
      while (found_singleton) {
        found_singleton = false;
        for (const auto& s : state.sets) {
          if (s.size() == 1) {
            int element = s.front();
            record_deletion(element);
            DropSetsContaining(element, &state.sets);
            found_singleton = true;
            break;
          }
        }
      }
      if (state.sets.empty()) break;
    }

    // Select the next candidates; with composite questions enabled
    // (Section 9 future work) several tuples are verified in one crowd
    // question, each chosen by the policy against the current sets.
    size_t batch_limit =
        std::max<size_t>(crowd->config().composite_batch_size, 1);
    std::vector<int> candidates;
    {
      // Work on a scratch copy so repeated picks differ.
      std::vector<std::vector<int>> scratch = state.sets;
      while (candidates.size() < batch_limit && !scratch.empty()) {
        int candidate;
        switch (policy) {
          case DeletionPolicy::kRandom:
            candidate = PickRandom(scratch, rng);
            break;
          case DeletionPolicy::kResponsibility:
            candidate = PickMostResponsible(scratch, rng);
            break;
          case DeletionPolicy::kLeastTrusted:
            candidate = PickLeastTrusted(scratch, state.facts, *trust, rng);
            break;
          default:
            candidate = PickMostFrequent(scratch, rng);
        }
        candidates.push_back(candidate);
        DropSetsContaining(candidate, &scratch);
      }
    }
    std::vector<Fact> batch;
    batch.reserve(candidates.size());
    for (int c : candidates) {
      batch.push_back(state.facts[static_cast<size_t>(c)]);
    }
    std::vector<bool> verdicts = crowd->VerifyFactsBatch(batch);
    for (size_t i = 0; i < candidates.size(); ++i) {
      int candidate = candidates[i];
      if (verdicts[i]) {
        EraseElementFromSets(candidate, &state.sets);
        // A witness all of whose tuples were verified true contradicts
        // the premise that t is wrong; with an imperfect crowd this can
        // happen. Drop such empty sets to guarantee termination.
        std::erase_if(state.sets,
                      [](const std::vector<int>& s) { return s.empty(); });
      } else {
        record_deletion(candidate);
        DropSetsContaining(candidate, &state.sets);
      }
    }
  }

  out.questions_asked = crowd->counts().verify_fact - questions_before;
  return out;
}

const char* DeletionPolicyName(DeletionPolicy policy) {
  switch (policy) {
    case DeletionPolicy::kQoco:
      return "QOCO";
    case DeletionPolicy::kQocoMinus:
      return "QOCO-";
    case DeletionPolicy::kRandom:
      return "Random";
    case DeletionPolicy::kResponsibility:
      return "Responsibility";
    case DeletionPolicy::kLeastTrusted:
      return "LeastTrusted";
  }
  return "?";
}

}  // namespace qoco::cleaning
