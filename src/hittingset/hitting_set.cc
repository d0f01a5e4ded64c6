#include "src/hittingset/hitting_set.h"

#include <algorithm>
#include <set>

#include "src/common/check.h"
#include "src/common/invariant.h"

namespace qoco::hittingset {

namespace {

bool Hits(const std::vector<int>& set, const std::set<int>& h) {
  for (int e : set) {
    if (h.contains(e)) return true;
  }
  return false;
}

}  // namespace

bool IsHittingSet(const Instance& instance, const std::vector<int>& h) {
  std::set<int> hs(h.begin(), h.end());
  for (const auto& s : instance.sets) {
    if (!Hits(s, hs)) return false;
  }
  return true;
}

bool IsMinimalHittingSet(const Instance& instance,
                         const std::vector<int>& h) {
  if (!IsHittingSet(instance, h)) return false;
  std::set<int> hs(h.begin(), h.end());
  for (int removed : h) {
    hs.erase(removed);
    bool still_hits = true;
    for (const auto& s : instance.sets) {
      if (!Hits(s, hs)) {
        still_hits = false;
        break;
      }
    }
    hs.insert(removed);
    if (still_hits) return false;
  }
  return true;
}

std::optional<std::vector<int>> UniqueMinimalHittingSet(
    const Instance& instance) {
  std::set<int> singleton_elements;
  for (const auto& s : instance.sets) {
    if (s.size() == 1) singleton_elements.insert(s.front());
  }
  for (const auto& s : instance.sets) {
    if (!Hits(s, singleton_elements)) return std::nullopt;
  }
  std::vector<int> unique(singleton_elements.begin(),
                          singleton_elements.end());
  QOCO_DCHECK(IsMinimalHittingSet(instance, unique))
      << "UniqueMinimalHittingSet produced a non-minimal hitting set";
  return unique;
}

std::vector<int> MostFrequentElements(
    const std::vector<std::vector<int>>& sets) {
  std::vector<int> elements;
  for (const auto& s : sets) {
    elements.insert(elements.end(), s.begin(), s.end());
  }
  std::sort(elements.begin(), elements.end());
  std::vector<int> best;
  size_t best_count = 0;
  for (auto run = elements.begin(); run != elements.end();) {
    auto run_end = std::find_if(run, elements.end(),
                                [&](int e) { return e != *run; });
    const auto count = static_cast<size_t>(run_end - run);
    if (count > best_count) {
      best_count = count;
      best.clear();
    }
    if (count == best_count) best.push_back(*run);
    run = run_end;
  }
  return best;
}

int MostFrequentElement(const std::vector<std::vector<int>>& sets) {
  std::vector<int> best = MostFrequentElements(sets);
  return best.empty() ? -1 : best.front();
}

std::vector<int> GreedyHittingSet(const Instance& instance) {
  std::vector<std::vector<int>> remaining = instance.sets;
  std::vector<int> h;
  while (!remaining.empty()) {
    int e = MostFrequentElement(remaining);
    h.push_back(e);
    std::erase_if(remaining, [e](const std::vector<int>& s) {
      return std::find(s.begin(), s.end(), e) != s.end();
    });
  }
  std::sort(h.begin(), h.end());
  QOCO_DCHECK_OK(AuditHittingSet(instance, h))
      << "GreedyHittingSet returned a set that misses a witness";
  return h;
}

namespace {

void Branch(const std::vector<std::vector<int>>& sets, size_t set_index,
            std::set<int>* current, std::vector<int>* best) {
  if (!best->empty() && current->size() >= best->size()) return;  // prune
  // Find the next unhit set.
  while (set_index < sets.size() && Hits(sets[set_index], *current)) {
    ++set_index;
  }
  if (set_index == sets.size()) {
    if (best->empty() || current->size() < best->size()) {
      best->assign(current->begin(), current->end());
    }
    return;
  }
  for (int e : sets[set_index]) {
    if (current->contains(e)) continue;
    current->insert(e);
    Branch(sets, set_index + 1, current, best);
    current->erase(e);
  }
}

}  // namespace

std::vector<int> ExactMinimumHittingSet(const Instance& instance) {
  if (instance.sets.empty()) return {};
  // Seed the bound with the greedy solution (always a valid hitting set).
  std::vector<int> best = GreedyHittingSet(instance);
  std::set<int> current;
  Branch(instance.sets, 0, &current, &best);
  std::sort(best.begin(), best.end());
  QOCO_DCHECK_OK(AuditHittingSet(instance, best))
      << "ExactMinimumHittingSet returned a set that misses a witness";
  return best;
}

common::Status AuditHittingSet(const Instance& instance,
                               const std::vector<int>& h) {
  common::InvariantAuditor audit("hittingset");
  std::set<int> hs;
  for (int e : h) {
    if (!hs.insert(e).second) {
      audit.Violation() << "element " << e << " appears more than once";
    }
    if (instance.num_elements > 0 &&
        (e < 0 || static_cast<size_t>(e) >= instance.num_elements)) {
      audit.Violation() << "element " << e << " is outside the universe [0, "
                        << instance.num_elements << ")";
    }
  }
  for (size_t i = 0; i < instance.sets.size(); ++i) {
    if (!Hits(instance.sets[i], hs)) {
      audit.Violation() << "set " << i << " (of " << instance.sets.size()
                        << ") is not hit";
    }
  }
  return audit.Finish();
}

}  // namespace qoco::hittingset
