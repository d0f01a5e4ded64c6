#ifndef QOCO_SERVICE_SESSION_MANAGER_H_
#define QOCO_SERVICE_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cleaning/cleaner.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/thread_safety.h"
#include "src/crowd/question_log.h"
#include "src/query/incremental_view.h"
#include "src/query/query.h"
#include "src/relational/database.h"
#include "src/relational/journal.h"
#include "src/service/question_broker.h"

namespace qoco::service {

/// Admission control for the session service.
struct ServiceLimits {
  /// Sessions admitted and not yet finished, whether running or waiting
  /// for a pool worker; beyond this Submit fails with ResourceExhausted.
  size_t max_sessions = 1088;
};

/// One client's cleaning request: an ordered list of view-cleaning steps
/// over the shared database.
struct SessionSpec {
  struct Step {
    enum class Kind { kCleanView, kCleanUnionView };
    Kind kind = Kind::kCleanView;
    std::string query_text;
  };
  std::vector<Step> steps;
  uint64_t seed = 1;
  /// Per-session cleaner tuning. Each session runs serially on one pool
  /// worker; the service's parallelism is *across* sessions.
  cleaning::CleanerConfig cleaner;
  /// The commit-journal position this session reads from: its private
  /// database is the base snapshot plus exactly this journal prefix.
  /// Default ({}) reads the pure base. Callers pass JournalHead() to read
  /// everything committed so far. An explicit handle (rather than "head at
  /// admission") keeps transcripts independent of submission timing.
  relational::JournalSnapshot base_snapshot;
  /// Question-dedup scope (see BrokerOracle). Sessions sharing a scope
  /// share cached answers; the default single-member scope is what the
  /// cross-session dedup guarantee is about.
  std::string scope = "member0";
};

/// Everything a finished session leaves behind.
struct SessionResult {
  common::Status status = common::Status::OK();
  /// The session's own edit transcript (EditJournal contents). Byte-equal
  /// to a solo serial run of the same spec — the service determinism
  /// contract.
  std::string journal;
  /// relational::DatabaseToCsv of the base snapshot the session read with
  /// `journal` replayed on top, rendered by Wait (until then the manager
  /// keeps the journal, not this text). For a successful session these are
  /// the facts its private database ended with, byte-equal to a solo serial
  /// run's DatabaseToCsv — the determinism contract again. A failed
  /// session's final facts hold only what its journal records: the step
  /// that failed journaled nothing, so edits it applied before failing are
  /// not among them.
  std::string final_facts_csv;
  /// Crowd interaction as the session experienced it (dedup-blind).
  crowd::QuestionCounts questions;
  /// What the session actually cost the crowd (broker attribution):
  /// questions it issued vs. answers it shared.
  crowd::SessionAttribution attribution;
};

/// Multiplexes many concurrent cleaning sessions over one shared base
/// database and one QuestionBroker.
///
/// Scheduling: Submit hands every admitted session straight to the pool,
/// whose one FIFO queue starts sessions in admission order as workers come
/// free; the manager keeps no queue of its own. ServiceLimits::max_sessions
/// bounds the sessions admitted and not yet finished. Results do not depend
/// on start order (the determinism contract below).
///
/// Isolation model: at admission every session gets a private Database: an
/// id-space copy of the base (rows, memberships and built indexes, no value
/// re-encoded) with the commit-journal prefix named by its spec replayed on
/// top (ReplayJournal). It then cleans that copy in place with a serial
/// qoco::Session. Readers are snapshot-isolated — concurrent commits never
/// appear mid-run. Successful sessions splice their edit transcripts into
/// the shared commit journal in session-id order (a scheduling-independent
/// total order), so the commit journal is byte-identical at any thread
/// count.
///
/// Coordinator/worker split: Submit runs on the caller's thread and does the
/// one interning step of a session up front, the journal replay (query
/// parsing interns nothing); the pooled session bodies only read the shared
/// catalog and write their private databases, which keeps the repo's
/// coordinator-only interning contract intact.
///
/// View seeds: sessions whose first step cleans the same conjunctive view
/// from the same snapshot start from byte-identical private databases, so
/// they evaluate it once. The manager keeps, per query signature, one
/// query::ViewSeed made at the newest snapshot a session of that signature
/// has read. A session whose first step is a kCleanView of that signature
/// at that snapshot starts its view from the seed: it shares the seed's
/// immutable witness sets and copies the seed's posting lists into its
/// private database's cold columns; otherwise it evaluates the view, makes
/// the seed and publishes it unless a newer one is held. A published seed
/// is read-only, and several workers may read it at once. Union first
/// steps and later steps evaluate as before. Results are the same either
/// way (see query::IncrementalView).
///
/// Bounded state: a finished session's private database is retired and
/// freed on the coordinator by the next Submit or Wait (a worker frees
/// nothing, so no session's time pays for another's teardown), and Wait
/// hands the result over once and drops the session. A result not yet
/// collected holds the session's journal, not a rendered database; Wait
/// renders the final facts from it. Memory is held for the sessions in
/// flight, the journals of results not yet collected and one view seed per
/// distinct query signature, not for every session ever served.
class SessionManager {
 public:
  /// `base`, `broker` and `pool` must outlive the manager. Every Submit
  /// copies `base`, so it must not change while the manager lives, its
  /// lazily built indexes included: a copy carries them, and view seeds
  /// rely on two copies at one snapshot being the same. Sessions
  /// run on `pool`; with an inline pool (num_threads <= 1) Submit runs the
  /// session to completion before returning.
  SessionManager(const relational::Database* base, QuestionBroker* broker,
                 common::ThreadPool* pool, ServiceLimits limits = {});
  /// Frees the retired databases. Every session must have finished.
  ~SessionManager();

  /// Admits one session: parses its queries, copies the base and replays
  /// the commit journal up to spec.base_snapshot, and hands it to the pool,
  /// which starts it when a worker is free. Fails fast — without creating a
  /// session — on parse errors, an out-of-range snapshot, a journal prefix
  /// that does not replay, or max_sessions sessions already active
  /// (ResourceExhausted). If the pool refuses the session (it was shut
  /// down), the session is created and fails without running: Wait returns
  /// the pool's status with an empty journal. Call from the coordinator
  /// thread only. Once the new session is on the pool (and on every error
  /// return), frees the databases of sessions finished since the last
  /// Submit or Wait.
  common::Result<SessionId> Submit(SessionSpec spec) QOCO_COORDINATOR_ONLY;

  /// Blocks until session `id` finishes and hands its result over, once:
  /// the result is moved out and the session's state dropped, so a later
  /// Wait on `id` returns NotFound. Of two concurrent waiters on one id,
  /// exactly one gets the result. Also frees retired databases, like
  /// Submit.
  ///
  /// The hand-over fills final_facts_csv: it rebuilds the session's final
  /// database (an id-space copy of the base, the commit-journal prefix the
  /// spec read, then the session's journal, each by ReplayJournal), renders
  /// it and frees it before returning. Any thread may call Wait: the
  /// rebuild only looks values up, because the base's values were interned
  /// at load, the prefix's at admission, and every value a session's edits
  /// hold is already in the shared catalog, so it reads the dictionary just
  /// as a running session does. If a journal does not replay, Wait returns
  /// ReplayJournal's status instead of the result.
  common::Result<SessionResult> Wait(SessionId id);

  /// Blocks until no session is active.
  void WaitIdle();

  /// Handle to the current end of the commit journal (pass as a later
  /// spec's base_snapshot to read all commits up to now).
  relational::JournalSnapshot JournalHead() const;

  /// Copy of the commit journal contents (replayable over the base
  /// snapshot with relational::ReplayJournal).
  std::string CommitJournalContents() const;

  /// Sessions admitted and not yet finished.
  size_t ActiveSessions() const;
  /// Active sessions that have not started: waiting for a pool worker.
  size_t QueuedSessions() const;

  /// Sessions whose body is executing on a pool worker right now. At most
  /// min(ActiveSessions, pool width): admitted sessions can still be
  /// waiting for a free worker. The test driver advances its fake clock
  /// when every *running* session is parked on a crowd question.
  size_t RunningSessions() const;

  /// Private databases alive right now: one per session admitted and not
  /// yet finished, plus finished sessions' databases not yet freed.
  size_t PrivateDatabases() const;

  /// View seeds held: at most one per distinct query signature that some
  /// session's first step has cleaned.
  size_t ViewSeeds() const;

  /// Sessions so far whose first view started from a seed instead of
  /// evaluating.
  size_t ViewSeedAdoptions() const;

  /// Observer invoked (outside the manager lock) each time a session
  /// finishes. The deterministic test driver counts finishes against parks
  /// to decide when the fake clock may advance.
  void SetFinishObserver(std::function<void(SessionId)> observer);

 private:
  /// One parsed step: exactly one of the two optionals is set.
  struct ParsedStep {
    std::optional<query::CQuery> cquery;
    std::optional<query::UnionQuery> union_query;
  };

  struct SessionState {
    std::vector<ParsedStep> steps;
    uint64_t seed = 1;
    cleaning::CleanerConfig cleaner;
    std::string scope;
    // The commit-journal prefix the private copy replayed; Wait replays it
    // again to rebuild the final database.
    relational::JournalSnapshot base_snapshot;
    // Private copy: the base plus the spec's journal prefix. Moved to
    // retired_ when the session finishes; null from then on.
    std::unique_ptr<relational::Database> db;
    // Set when a worker starts the session; a session the pool refused
    // finishes without starting.
    bool started = false;
    bool done = false;
    // Moved out by the one Wait that erases this state, which also fills
    // its final_facts_csv.
    SessionResult result;

    explicit SessionState(std::unique_ptr<relational::Database> database)
        : db(std::move(database)) {}
  };

  /// Submit's body: admits and launches the session.
  common::Result<SessionId> Admit(SessionSpec spec) QOCO_COORDINATOR_ONLY;

  /// Takes retired_ under the lock and destroys it outside the lock, on the
  /// calling (coordinator) thread.
  void FreeRetired();

  /// Runs one admitted session to completion (no lock held).
  void RunOne(SessionId id);

  /// The seed a session's first view of `q` starts from, over `db` read at
  /// `snapshot`: the one held for q's signature if it was made at that
  /// snapshot, else a new one made over `db` and published unless a seed
  /// from a newer snapshot is held. Runs on the worker, locking only to
  /// look up and to publish.
  std::shared_ptr<const query::ViewSeed> SeedFor(
      const query::CQuery& q, relational::JournalSnapshot snapshot,
      const relational::Database& db);

  /// Marks `id` finished, retires its database, advances the in-order
  /// commit frontier, releases its admission slot and wakes waiters. Fires
  /// the finish observer outside the lock.
  void Finish(SessionId id);

  const relational::Database* base_;
  QuestionBroker* broker_;
  common::ThreadPool* pool_;
  const ServiceLimits limits_;

  mutable common::Mutex mu_;
  mutable std::condition_variable_any cv_;
  uint64_t next_id_ QOCO_GUARDED_BY(mu_) = 1;
  /// Sessions admitted and not finished, and those of them started.
  size_t active_ QOCO_GUARDED_BY(mu_) = 0;
  size_t running_ QOCO_GUARDED_BY(mu_) = 0;
  /// Sessions admitted and not yet handed over by Wait.
  std::map<SessionId, std::unique_ptr<SessionState>> sessions_
      QOCO_GUARDED_BY(mu_);
  /// Databases of finished sessions, waiting for FreeRetired.
  std::vector<std::unique_ptr<relational::Database>> retired_
      QOCO_GUARDED_BY(mu_);
  relational::EditJournal commit_journal_ QOCO_GUARDED_BY(mu_);
  /// Finished-but-not-yet-committed journals, spliced strictly in id order.
  SessionId next_commit_ QOCO_GUARDED_BY(mu_) = 1;
  std::map<SessionId, std::string> pending_commits_ QOCO_GUARDED_BY(mu_);
  std::function<void(SessionId)> finish_observer_ QOCO_GUARDED_BY(mu_);

  /// A published seed and the snapshot its database was read at.
  struct SeedEntry {
    relational::JournalSnapshot snapshot;
    std::shared_ptr<const query::ViewSeed> seed;
  };
  /// Keyed by query signature.
  std::map<std::string, SeedEntry> seeds_ QOCO_GUARDED_BY(mu_);
  size_t seed_adoptions_ QOCO_GUARDED_BY(mu_) = 0;
};

}  // namespace qoco::service

#endif  // QOCO_SERVICE_SESSION_MANAGER_H_
