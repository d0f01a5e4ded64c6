#include "src/service/session_manager.h"

#include <utility>

#include "src/qoco/session.h"
#include "src/query/parser.h"
#include "src/relational/csv.h"
#include "src/service/broker_oracle.h"

namespace qoco::service {

SessionManager::SessionManager(const relational::Database* base,
                               QuestionBroker* broker,
                               common::ThreadPool* pool, ServiceLimits limits)
    : base_(base), broker_(broker), pool_(pool), limits_(limits) {}

SessionManager::~SessionManager() { FreeRetired(); }

common::Result<SessionId> SessionManager::Submit(SessionSpec spec) {
  common::Result<SessionId> id = Admit(std::move(spec));
  // Freed after the launch, so the new session does not wait for it.
  FreeRetired();
  return id;
}

void SessionManager::FreeRetired() {
  std::vector<std::unique_ptr<relational::Database>> retired;
  {
    common::MutexLock lk(mu_);
    retired.swap(retired_);
  }
}  // `retired` is destroyed here, outside the lock.

common::Result<SessionId> SessionManager::Admit(SessionSpec spec) {
  // Journal replay below is the one step of a session that interns, so it
  // runs here, on the coordinator. Parsing interns nothing (the evaluator
  // compiles constants with the non-mutating Find); workers only read the
  // catalog.
  std::vector<ParsedStep> steps;
  steps.reserve(spec.steps.size());
  for (const SessionSpec::Step& step : spec.steps) {
    ParsedStep parsed;
    if (step.kind == SessionSpec::Step::Kind::kCleanView) {
      common::Result<query::CQuery> q =
          query::ParseQuery(step.query_text, base_->catalog());
      if (!q.ok()) return q.status();
      parsed.cquery = std::move(q).value();
    } else {
      common::Result<query::UnionQuery> q =
          query::ParseUnionQuery(step.query_text, base_->catalog());
      if (!q.ok()) return q.status();
      parsed.union_query = std::move(q).value();
    }
    steps.push_back(std::move(parsed));
  }

  std::string journal_prefix;
  {
    common::MutexLock lk(mu_);
    if (spec.base_snapshot.bytes > commit_journal_.contents().size()) {
      return common::Status::InvalidArgument(
          "base_snapshot beyond the commit journal head");
    }
    journal_prefix = std::string(commit_journal_.ContentsAt(spec.base_snapshot));
  }
  // The private database is an id-space copy of the base: no value is
  // re-encoded, so every value the base holds reaches the session intact.
  auto db = std::make_unique<relational::Database>(*base_);
  QOCO_RETURN_NOT_OK(relational::ReplayJournal(journal_prefix, db.get()));

  auto state = std::make_unique<SessionState>(std::move(db));
  state->steps = std::move(steps);
  state->seed = spec.seed;
  state->cleaner = spec.cleaner;
  state->scope = std::move(spec.scope);
  state->base_snapshot = spec.base_snapshot;

  SessionId id = 0;
  {
    common::MutexLock lk(mu_);
    if (active_ >= limits_.max_sessions) {
      return common::Status::ResourceExhausted(
          "session service at capacity: " +
          std::to_string(limits_.max_sessions) + " sessions active");
    }
    id = next_id_++;
    sessions_.emplace(id, std::move(state));
    active_++;
  }
  // With an inline pool this runs the whole session before returning.
  common::Status submitted = pool_->Submit([this, id] {
    RunOne(id);
    Finish(id);
  });
  if (!submitted.ok()) {  // Pool shut down: the session fails unrun.
    {
      common::MutexLock lk(mu_);
      sessions_.at(id)->result.status = submitted;
    }
    Finish(id);
  }
  return id;
}

void SessionManager::RunOne(SessionId id) {
  SessionState* state = nullptr;
  {
    common::MutexLock lk(mu_);
    state = sessions_.at(id).get();
    state->started = true;
    running_++;
  }
  // Until Finish marks it done, `state` belongs to this worker alone (Wait
  // readers block on done); the map's unique_ptr keeps its address stable.
  BrokerOracle shim(broker_, id, state->scope);
  qoco::Session::Options options;
  options.cleaner = state->cleaner;
  options.panel.sample_size = 1;
  options.seed = state->seed;
  qoco::Session session(state->db.get(), {&shim}, options);

  // Only the first step reads the snapshot as it was admitted.
  std::shared_ptr<const query::ViewSeed> seed;
  if (!state->steps.empty() && state->steps.front().cquery.has_value()) {
    seed = SeedFor(*state->steps.front().cquery, state->base_snapshot,
                   *state->db);
  }
  common::Status status = common::Status::OK();
  for (const ParsedStep& step : state->steps) {
    common::Result<cleaning::CleanerStats> stats =
        step.cquery.has_value() ? session.CleanView(*step.cquery, seed.get())
                                : session.CleanUnionView(*step.union_query);
    seed = nullptr;
    if (!stats.ok()) {
      status = stats.status();
      break;
    }
    if (!shim.status().ok()) {  // Oracle failed: the shim failed closed.
      status = shim.status();
      break;
    }
  }

  SessionResult result;
  result.status = std::move(status);
  result.journal = session.journal().contents();
  result.questions = session.questions();
  result.attribution = broker_->SessionStats(id);
  {
    common::MutexLock lk(mu_);
    state->result = std::move(result);
  }
}

std::shared_ptr<const query::ViewSeed> SessionManager::SeedFor(
    const query::CQuery& q, relational::JournalSnapshot snapshot,
    const relational::Database& db) {
  std::string signature = q.Signature();
  {
    common::MutexLock lk(mu_);
    auto it = seeds_.find(signature);
    if (it != seeds_.end() && it->second.snapshot == snapshot) {
      seed_adoptions_++;
      return it->second.seed;
    }
  }
  auto seed =
      std::make_shared<const query::ViewSeed>(query::MakeViewSeed(q, db));
  common::MutexLock lk(mu_);
  auto [it, inserted] = seeds_.try_emplace(std::move(signature));
  // Commit-journal snapshots are prefixes, so more bytes is newer.
  if (inserted || it->second.snapshot.bytes < snapshot.bytes) {
    it->second = SeedEntry{snapshot, seed};
  }
  return seed;
}

void SessionManager::Finish(SessionId id) {
  std::function<void(SessionId)> observer;
  {
    common::MutexLock lk(mu_);
    SessionState& state = *sessions_.at(id);
    state.done = true;
    // Freed by the coordinator's next Submit or Wait, never on a worker.
    retired_.push_back(std::move(state.db));
    active_--;
    if (state.started) running_--;
    // Failed sessions commit nothing, but still advance the frontier.
    pending_commits_[id] =
        state.result.status.ok() ? state.result.journal : std::string();
    while (true) {
      auto it = pending_commits_.find(next_commit_);
      if (it == pending_commits_.end()) break;
      commit_journal_.AppendRecords(it->second);
      pending_commits_.erase(it);
      next_commit_++;
    }
    observer = finish_observer_;
    cv_.notify_all();
  }
  if (observer) observer(id);
}

common::Result<SessionResult> SessionManager::Wait(SessionId id) {
  std::unique_ptr<SessionState> state;
  std::string journal_prefix;
  {
    common::MutexLock lk(mu_);
    auto it = sessions_.find(id);
    while (it != sessions_.end() && !it->second->done) {
      cv_.wait(lk);
      // A concurrent Wait may have taken the result and erased the entry.
      it = sessions_.find(id);
    }
    if (it != sessions_.end()) {
      state = std::move(it->second);
      sessions_.erase(it);
      journal_prefix =
          std::string(commit_journal_.ContentsAt(state->base_snapshot));
    }
  }
  FreeRetired();
  if (state == nullptr) {
    return common::Status::NotFound("no such session: " + std::to_string(id));
  }
  // The private database is gone; rebuild the final one from the base, the
  // prefix the session read and its own journal, render it, and free it.
  SessionResult& result = state->result;
  relational::Database final_db(*base_);
  QOCO_RETURN_NOT_OK(relational::ReplayJournal(journal_prefix, &final_db));
  QOCO_RETURN_NOT_OK(relational::ReplayJournal(result.journal, &final_db));
  result.final_facts_csv = relational::DatabaseToCsv(final_db);
  return std::move(result);
}

void SessionManager::WaitIdle() {
  common::MutexLock lk(mu_);
  while (active_ > 0) cv_.wait(lk);
}

relational::JournalSnapshot SessionManager::JournalHead() const {
  common::MutexLock lk(mu_);
  return commit_journal_.snapshot();
}

std::string SessionManager::CommitJournalContents() const {
  common::MutexLock lk(mu_);
  return commit_journal_.contents();
}

size_t SessionManager::ActiveSessions() const {
  common::MutexLock lk(mu_);
  return active_;
}

size_t SessionManager::RunningSessions() const {
  common::MutexLock lk(mu_);
  return running_;
}

size_t SessionManager::PrivateDatabases() const {
  common::MutexLock lk(mu_);
  size_t live = retired_.size();
  for (const auto& [id, state] : sessions_) {
    if (state->db != nullptr) live++;
  }
  return live;
}

size_t SessionManager::ViewSeeds() const {
  common::MutexLock lk(mu_);
  return seeds_.size();
}

size_t SessionManager::ViewSeedAdoptions() const {
  common::MutexLock lk(mu_);
  return seed_adoptions_;
}

size_t SessionManager::QueuedSessions() const {
  common::MutexLock lk(mu_);
  return active_ - running_;
}

void SessionManager::SetFinishObserver(std::function<void(SessionId)> observer) {
  common::MutexLock lk(mu_);
  finish_observer_ = std::move(observer);
}

}  // namespace qoco::service
