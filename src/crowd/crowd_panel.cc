#include "src/crowd/crowd_panel.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <set>

#include "src/relational/csv.h"

namespace qoco::crowd {

CrowdPanel::CrowdPanel(std::vector<Oracle*> members, PanelConfig config)
    : members_(std::move(members)), config_(config) {
  assert(!members_.empty());
  assert(config_.sample_size % 2 == 1);
  if (config_.sample_size > members_.size()) {
    config_.sample_size = members_.size() - (1 - members_.size() % 2);
    if (config_.sample_size == 0) config_.sample_size = 1;
  }
  reliability_.resize(members_.size());
}

std::vector<bool> CrowdPanel::Vote(
    size_t n, const std::function<bool(Oracle*, size_t)>& ask) {
  const size_t sample = config_.sample_size;
  const size_t majority = sample / 2 + 1;
  const bool weighted = config_.weighted_voting && sample > 1;
  auto member_at = [&](size_t m) {
    return (next_member_ + m) % members_.size();
  };
  std::vector<std::vector<bool>> votes;  // [m][i]: m-th member, question i
  std::vector<size_t> yes(n, 0);
  bool decided = false;
  while (!decided && votes.size() < sample) {
    Oracle* member = members_[member_at(votes.size())];
    ++counts_.member_answers;
    std::vector<bool>& vote = votes.emplace_back(n);
    // A plain majority vote ends as soon as every question has a majority;
    // the remaining members are not consulted (Section 7: "once two
    // experts give the same answer, a third answer is no longer needed").
    // A weighted vote hears every sampled member.
    decided = !weighted;
    for (size_t i = 0; i < n; ++i) {
      vote[i] = ask(member, i);
      if (vote[i]) ++yes[i];
      size_t no = votes.size() - yes[i];
      decided = decided && (yes[i] >= majority || no >= majority);
    }
  }
  std::vector<bool> decisions(n);
  for (size_t i = 0; i < n; ++i) decisions[i] = yes[i] >= majority;
  if (weighted) {
    // Each question goes to the reliability-weighted side, and each
    // member's reliability follows its agreement with every decision.
    for (size_t i = 0; i < n; ++i) {
      double yes_weight = 0;
      double no_weight = 0;
      for (size_t m = 0; m < votes.size(); ++m) {
        double weight = reliability_[member_at(m)].Weight();
        (votes[m][i] ? yes_weight : no_weight) += weight;
      }
      decisions[i] = yes_weight >= no_weight;
    }
    for (size_t m = 0; m < votes.size(); ++m) {
      Reliability& r = reliability_[member_at(m)];
      for (size_t i = 0; i < n; ++i) {
        ++r.answers;
        if (votes[m][i] == decisions[i]) ++r.agreements;
      }
    }
  }
  next_member_ = (next_member_ + 1) % members_.size();
  return decisions;
}

bool CrowdPanel::VerifyFact(const relational::Fact& fact) {
  return VerifyFactsBatch({fact}).front();
}

std::vector<bool> CrowdPanel::VerifyFactsBatch(
    const std::vector<relational::Fact>& facts) {
  std::vector<bool> verdicts(facts.size(), false);
  // Resolve cached facts and collect the rest (deduplicated) for batching.
  std::vector<size_t> pending;
  for (size_t i = 0; i < facts.size(); ++i) {
    auto it = fact_cache_.find(facts[i]);
    if (it != fact_cache_.end()) {
      verdicts[i] = it->second;
    } else {
      pending.push_back(i);
    }
  }
  size_t batch_limit = std::max<size_t>(config_.composite_batch_size, 1);
  size_t cursor = 0;
  while (cursor < pending.size()) {
    // One composite question covering up to batch_limit distinct facts.
    std::vector<size_t> batch;
    while (cursor < pending.size() && batch.size() < batch_limit) {
      size_t index = pending[cursor++];
      // The fact may have been answered by an earlier batch (duplicates).
      auto it = fact_cache_.find(facts[index]);
      if (it != fact_cache_.end()) {
        verdicts[index] = it->second;
        continue;
      }
      batch.push_back(index);
    }
    if (batch.empty()) continue;
    ++counts_.verify_fact;  // The composite counts as one question.
    auto ask = [&](Oracle* o, size_t b) {
      return o->IsFactTrue(facts[batch[b]]);
    };
    std::vector<bool> decided = Vote(batch.size(), ask);
    for (size_t b = 0; b < batch.size(); ++b) {
      verdicts[batch[b]] = decided[b];
      fact_cache_.emplace(facts[batch[b]], decided[b]);
    }
  }
  return verdicts;
}

namespace {

std::string AnswerKey(const std::string& signature,
                      const relational::Tuple& t) {
  return signature + "|" + relational::EncodeTupleKey(t);
}

}  // namespace

bool CrowdPanel::VerifyAnswer(const query::CQuery& q,
                              const relational::Tuple& t) {
  std::string key = AnswerKey(q.Signature(), t);
  auto it = answer_cache_.find(key);
  if (it != answer_cache_.end()) return it->second;
  ++counts_.verify_answer;
  auto ask = [&](Oracle* o, size_t) { return o->IsAnswerTrue(q, t); };
  bool verdict = Vote(1, ask).front();
  answer_cache_.emplace(std::move(key), verdict);
  return verdict;
}

bool CrowdPanel::VerifyAnswer(const query::UnionQuery& q,
                              const relational::Tuple& t) {
  std::string signature = "union:";
  for (const query::CQuery& disjunct : q.disjuncts()) {
    signature += disjunct.Signature() + "||";
  }
  std::string key = AnswerKey(signature, t);
  auto it = answer_cache_.find(key);
  if (it != answer_cache_.end()) return it->second;
  ++counts_.verify_answer;
  auto ask = [&](Oracle* o, size_t) { return o->IsAnswerTrue(q, t); };
  bool verdict = Vote(1, ask).front();
  answer_cache_.emplace(std::move(key), verdict);
  return verdict;
}

bool CrowdPanel::VerifyPartialBody(const query::CQuery& q,
                                   const query::Assignment& a) {
  for (const query::Inequality& ineq : q.inequalities()) {
    std::optional<bool> holds = a.CheckInequality(ineq);
    if (holds.has_value() && !*holds) return false;
  }
  for (const query::Atom& atom : q.atoms()) {
    std::optional<relational::Fact> fact = a.GroundAtom(atom);
    if (fact.has_value() && !VerifyFact(*fact)) return false;
  }
  return true;
}

namespace {

/// Unique variables bound in `full` but not pinned by `partial`.
size_t NewlyFilledVars(const query::Assignment& partial,
                       const query::Assignment& full) {
  size_t filled = 0;
  for (size_t v = 0; v < full.num_vars(); ++v) {
    query::VarId var = static_cast<query::VarId>(v);
    if (!full.IsBound(var)) continue;
    if (v < partial.num_vars() && partial.IsBound(var)) continue;
    ++filled;
  }
  return filled;
}

}  // namespace

std::optional<query::Assignment> CrowdPanel::Complete(
    const query::CQuery& q, const query::Assignment& partial) {
  for (size_t i = 0; i < members_.size(); ++i) {
    Oracle* member = members_[(next_member_ + i) % members_.size()];
    ++counts_.complete_tasks;
    ++counts_.member_answers;
    std::optional<query::Assignment> answer = member->Complete(q, partial);
    if (config_.sample_size == 1) {
      // Perfect-oracle mode: the single member is trusted outright.
      if (answer.has_value()) {
        counts_.filled_variables += NewlyFilledVars(partial, *answer);
      }
      next_member_ = (next_member_ + 1) % members_.size();
      return answer;
    }
    if (!answer.has_value()) continue;  // Claims unsatisfiable; ask another.
    counts_.filled_variables += NewlyFilledVars(partial, *answer);
    // Section 6.2: every answer to an open question is verified with
    // closed questions before being accepted.
    bool verified = true;
    for (const query::Atom& atom : q.atoms()) {
      std::optional<relational::Fact> fact = answer->GroundAtom(atom);
      if (!fact.has_value() || !VerifyFact(*fact)) {
        verified = false;
        break;
      }
    }
    if (verified) {
      for (const query::Inequality& ineq : q.inequalities()) {
        std::optional<bool> holds = answer->CheckInequality(ineq);
        if (!holds.has_value() || !*holds) {
          verified = false;
          break;
        }
      }
    }
    if (verified) {
      next_member_ = (next_member_ + 1) % members_.size();
      return answer;
    }
  }
  next_member_ = (next_member_ + 1) % members_.size();
  return std::nullopt;
}

std::optional<relational::Tuple> CrowdPanel::MissingAnswer(
    const query::CQuery& q, const std::vector<relational::Tuple>& current) {
  std::set<query::VarId> head_vars;
  for (const query::Term& t : q.head()) {
    if (t.is_variable()) head_vars.insert(t.var());
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    Oracle* member = members_[(next_member_ + i) % members_.size()];
    ++counts_.enumeration_tasks;
    ++counts_.member_answers;
    std::optional<relational::Tuple> answer =
        member->MissingAnswer(q, current);
    if (config_.sample_size == 1) {
      if (answer.has_value()) counts_.missing_answer_vars += head_vars.size();
      next_member_ = (next_member_ + 1) % members_.size();
      return answer;
    }
    if (!answer.has_value()) continue;  // Believes complete; ask another.
    counts_.missing_answer_vars += head_vars.size();
    if (VerifyAnswer(q, *answer)) {
      next_member_ = (next_member_ + 1) % members_.size();
      return answer;
    }
  }
  next_member_ = (next_member_ + 1) % members_.size();
  return std::nullopt;
}

std::optional<relational::Tuple> CrowdPanel::MissingAnswer(
    const query::UnionQuery& q,
    const std::vector<relational::Tuple>& current) {
  for (size_t i = 0; i < members_.size(); ++i) {
    Oracle* member = members_[(next_member_ + i) % members_.size()];
    ++counts_.enumeration_tasks;
    ++counts_.member_answers;
    std::optional<relational::Tuple> answer =
        member->MissingAnswer(q, current);
    if (config_.sample_size == 1) {
      if (answer.has_value()) {
        counts_.missing_answer_vars += q.head_arity();
      }
      next_member_ = (next_member_ + 1) % members_.size();
      return answer;
    }
    if (!answer.has_value()) continue;
    counts_.missing_answer_vars += q.head_arity();
    if (VerifyAnswer(q, *answer)) {
      next_member_ = (next_member_ + 1) % members_.size();
      return answer;
    }
  }
  next_member_ = (next_member_ + 1) % members_.size();
  return std::nullopt;
}

}  // namespace qoco::crowd
