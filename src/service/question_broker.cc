#include "src/service/question_broker.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace qoco::service {

QuestionBroker::QuestionBroker(crowd::AsyncOracle* oracle, Clock* clock,
                               BrokerConfig config)
    : oracle_(oracle), clock_(clock), config_(config) {}

void QuestionBroker::Ask(SessionId sid, const crowd::Question& q,
                         crowd::AsyncOracle::Completion done) {
  std::string sig = q.Signature();
  Tick now = clock_->Now();
  std::optional<common::Result<crowd::Answer>> immediate;
  bool issue = false;
  {
    common::MutexLock lk(mu_);
    stats_.asked++;
    crowd::SessionAttribution& attr = attribution_[sid];
    attr.asked++;
    auto [it, inserted] = entries_.try_emplace(sig);
    Entry& e = it->second;
    if (inserted) {
      stats_.oracle_issues++;
      attr.issued++;
      e.question = std::make_unique<crowd::Question>(q);
      e.attempt = 1;
      e.waiters.push_back(Waiter{sid, std::move(done), now});
      issue = true;
    } else if (e.answered) {
      stats_.cache_hits++;
      attr.cache_hits++;
      if (!e.status.ok()) attr.failures++;
      latency_samples_.push_back(0);
      immediate = EntryResult(e);
    } else {
      stats_.joined_inflight++;
      attr.joined++;
      e.waiters.push_back(Waiter{sid, std::move(done), now});
    }
  }
  if (immediate.has_value()) {
    done(std::move(*immediate));
    return;
  }
  if (issue) IssueAttempt(sig, 1, q);
}

void QuestionBroker::IssueAttempt(const std::string& sig, size_t attempt,
                                  const crowd::Question& q) {
  // Arm the attempt's deadline before handing the question to the oracle:
  // an inline-completing oracle then resolves the entry first and the
  // timeout fires as a no-op, never the other way around.
  if (config_.timeout_ticks > 0) {
    Tick deadline = clock_->Now() + (config_.timeout_ticks << (attempt - 1));
    clock_->RunAt(deadline, [this, sig, attempt] { OnTimeout(sig, attempt); });
  }
  oracle_->Ask(q, [this, sig, attempt](common::Result<crowd::Answer> r) {
    OnCompletion(sig, attempt, std::move(r));
  });
}

common::Result<crowd::Answer> QuestionBroker::EntryResult(
    const Entry& e) const {
  if (e.answer.has_value()) return *e.answer;
  return e.status;
}

std::vector<QuestionBroker::Waiter> QuestionBroker::Resolve(
    Entry* e, common::Result<crowd::Answer> result) {
  e->answered = true;
  // Only a retry reads the question, and none follows an answer.
  e->question.reset();
  if (result.ok()) {
    e->answer = std::move(result).value();
    e->status = common::Status::OK();
  } else {
    e->status = result.status();
    stats_.failed_questions++;
  }
  Tick now = clock_->Now();
  std::vector<Waiter> waiters = std::move(e->waiters);
  e->waiters.clear();
  for (const Waiter& w : waiters) {
    latency_samples_.push_back(now >= w.asked_at ? now - w.asked_at : 0);
    if (!e->status.ok()) attribution_[w.sid].failures++;
  }
  return waiters;
}

void QuestionBroker::OnCompletion(const std::string& sig, size_t attempt,
                                  common::Result<crowd::Answer> result) {
  std::vector<Waiter> waiters;
  std::optional<common::Result<crowd::Answer>> outcome;
  std::optional<std::pair<size_t, crowd::Question>> retry;
  {
    common::MutexLock lk(mu_);
    auto it = entries_.find(sig);
    if (it == entries_.end()) return;
    Entry& e = it->second;
    if (e.answered) {
      // The question already resolved (an earlier duplicate delivery, or a
      // timeout failure whose real answer now straggled in). Count and
      // discard: answers are applied at most once.
      stats_.duplicate_completions++;
      return;
    }
    if (result.ok()) {
      // A success is a success even from a superseded attempt — it answers
      // the same question.
      if (attempt != e.attempt) stats_.late_completions++;
      outcome = result;
      waiters = Resolve(&e, std::move(result));
    } else if (attempt != e.attempt) {
      // A stale attempt's failure says nothing about the live attempt.
      stats_.late_completions++;
      return;
    } else if (e.attempt >= config_.max_attempts) {
      outcome = result;
      waiters = Resolve(&e, std::move(result));
    } else {
      e.attempt++;
      stats_.retries++;
      retry = {e.attempt, *e.question};
    }
  }
  for (Waiter& w : waiters) w.done(*outcome);
  if (retry.has_value()) IssueAttempt(sig, retry->first, retry->second);
}

void QuestionBroker::OnTimeout(const std::string& sig, size_t attempt) {
  std::vector<Waiter> waiters;
  std::optional<common::Result<crowd::Answer>> outcome;
  std::optional<std::pair<size_t, crowd::Question>> retry;
  {
    common::MutexLock lk(mu_);
    auto it = entries_.find(sig);
    if (it == entries_.end()) return;
    Entry& e = it->second;
    // Stale deadline: the question resolved, or a completion/error already
    // moved it to a newer attempt with its own deadline.
    if (e.answered || attempt != e.attempt) return;
    stats_.timeouts++;
    if (e.attempt >= config_.max_attempts) {
      common::Result<crowd::Answer> failure = common::Status::DeadlineExceeded(
          "oracle question timed out after " +
          std::to_string(config_.max_attempts) + " attempts: " + sig);
      outcome = failure;
      waiters = Resolve(&e, std::move(failure));
    } else {
      e.attempt++;
      stats_.retries++;
      retry = {e.attempt, *e.question};
    }
  }
  for (Waiter& w : waiters) w.done(*outcome);
  if (retry.has_value()) IssueAttempt(sig, retry->first, retry->second);
}

common::Result<crowd::Answer> QuestionBroker::AskBlocking(
    SessionId sid, const crowd::Question& q) {
  struct BlockState {
    common::Notification done;
    common::Mutex mu;
    std::optional<common::Result<crowd::Answer>> result;
  };
  auto state = std::make_shared<BlockState>();
  Ask(sid, q, [state](common::Result<crowd::Answer> r) {
    {
      common::MutexLock lk(state->mu);
      state->result = std::move(r);
    }
    state->done.Notify();
  });
  if (!state->done.HasBeenNotified()) {
    std::function<void(int)> observer;
    {
      common::MutexLock lk(mu_);
      observer = park_observer_;
    }
    if (observer) observer(+1);
    state->done.WaitForNotification();
    if (observer) observer(-1);
  }
  common::MutexLock lk(state->mu);
  return *state->result;
}

BrokerStats QuestionBroker::stats() const {
  common::MutexLock lk(mu_);
  return stats_;
}

crowd::SessionAttribution QuestionBroker::SessionStats(SessionId sid) const {
  common::MutexLock lk(mu_);
  auto it = attribution_.find(sid);
  if (it == attribution_.end()) return crowd::SessionAttribution{};
  return it->second;
}

size_t QuestionBroker::DistinctQuestions() const {
  common::MutexLock lk(mu_);
  return entries_.size();
}

std::vector<std::string> QuestionBroker::KnownSignatures() const {
  std::vector<std::string> sigs;
  common::MutexLock lk(mu_);
  sigs.reserve(entries_.size());
  // qoco-lint: allow(unordered-iteration): key snapshot only, sorted below
  for (const auto& [sig, entry] : entries_) sigs.push_back(sig);
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

std::vector<Tick> QuestionBroker::LatencySamples() const {
  common::MutexLock lk(mu_);
  return latency_samples_;
}

void QuestionBroker::SetParkObserver(std::function<void(int)> observer) {
  common::MutexLock lk(mu_);
  park_observer_ = std::move(observer);
}

}  // namespace qoco::service
