#ifndef QOCO_SERVICE_QUESTION_BROKER_H_
#define QOCO_SERVICE_QUESTION_BROKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/common/thread_safety.h"
#include "src/crowd/async_oracle.h"
#include "src/crowd/question_log.h"
#include "src/service/clock.h"

namespace qoco::service {

/// Identifier of one cleaning session within the service (assigned by
/// SessionManager, starting at 1).
using SessionId = uint64_t;

/// Broker tuning knobs.
struct BrokerConfig {
  /// Time allowed for the oracle's first completion attempt; attempt k
  /// waits timeout_ticks * 2^(k-1) (doubling backoff). 0 disables timeouts
  /// entirely — questions wait forever (fine for a trusted in-process
  /// oracle, wrong for a real crowd transport).
  Tick timeout_ticks = 0;
  /// Oracle attempts per question before the broker gives up and fails
  /// every waiter with DeadlineExceeded.
  size_t max_attempts = 3;
};

/// Broker-wide counters. `asked == cache_hits + joined_inflight +
/// oracle_issues` (every ask takes exactly one of the three paths), and
/// with a fault-free transport `oracle_issues` equals the number of
/// distinct question signatures — the dedup guarantee the transcript tests
/// pin. All remaining counters are fault-path accounting.
struct BrokerStats {
  size_t asked = 0;
  size_t cache_hits = 0;
  size_t joined_inflight = 0;
  size_t oracle_issues = 0;        // attempts sent to the oracle, retries included
  size_t retries = 0;              // re-issues after a timeout or error
  size_t timeouts = 0;             // attempt deadlines that fired
  size_t duplicate_completions = 0;  // completions for already-answered questions
  size_t late_completions = 0;     // completions from superseded attempts
  size_t failed_questions = 0;     // questions failed after max_attempts
};

/// Cross-session crowd-question broker: the piece that makes N sessions
/// cleaning the same facts cost one crowd question instead of N.
///
/// Every question is keyed by its canonical signature
/// (crowd::Question::Signature). The first ask issues it to the async
/// oracle; asks arriving while it is in flight attach themselves as
/// waiters; one completion fans out to every waiter; the answer is then
/// cached permanently, so later asks are free. The cache keeps the answer
/// and the signature, not the question. Timeouts retry with
/// doubling backoff up to max_attempts, then fail all waiters with a clean
/// DeadlineExceeded. Dropped completions are covered by the retry path;
/// duplicated or superseded completions are counted and discarded — an
/// answer is recorded (and fanned out) at most once per question, so
/// nothing is ever double-applied.
///
/// Determinism: sharing answers across sessions preserves each session's
/// solo transcript iff the oracle is *pure* — its answer a function of the
/// question signature only. SimulatedOracle is pure; ImperfectOracle must
/// be in stateless mode. Under a pure oracle, `stats().oracle_issues`
/// equals the number of distinct signatures regardless of thread count or
/// interleaving: any later ask of a signature finds it in flight or
/// answered, never re-issues.
///
/// Completion callbacks (waiter `done`, oracle completions, clock timers)
/// are always invoked outside the broker lock, so they may re-enter the
/// broker — required for inline (zero-latency) oracles.
class QuestionBroker {
 public:
  /// `oracle` and `clock` must outlive the broker.
  QuestionBroker(crowd::AsyncOracle* oracle, Clock* clock,
                 BrokerConfig config = {});

  /// Asynchronous ask on behalf of `sid`: `done` fires exactly once —
  /// inline for a cache hit (or inline-completing oracle), else from the
  /// completion/timeout path.
  void Ask(SessionId sid, const crowd::Question& q,
           crowd::AsyncOracle::Completion done);

  /// Blocking form: parks the calling session on a Notification until the
  /// answer (or failure) arrives. This is what BrokerOracle calls; the
  /// caller must not be the only thread able to complete the question
  /// (inline oracle answers and answers delivered from other threads both
  /// qualify).
  common::Result<crowd::Answer> AskBlocking(SessionId sid,
                                            const crowd::Question& q);

  BrokerStats stats() const;

  /// Attribution for one session (zeroes if it never asked anything).
  crowd::SessionAttribution SessionStats(SessionId sid) const;

  /// Number of distinct question signatures the broker has seen (in flight
  /// or answered).
  size_t DistinctQuestions() const;

  /// Sorted distinct signatures seen so far (test/diagnostic surface; the
  /// dedup transcript test unions these across solo runs to compute the
  /// exact expected concurrent question count).
  std::vector<std::string> KnownSignatures() const;

  /// Ask→answer latency samples in clock ticks, one per completed ask
  /// (cache hits count as 0). Order follows completion order; consumers
  /// aggregate (p50/p99), never index.
  std::vector<Tick> LatencySamples() const;

  /// Observer invoked with +1 just before a session parks in AskBlocking
  /// and -1 right after it wakes, outside the broker lock. The test
  /// driver advances the fake clock exactly when every live session is
  /// parked, making multi-threaded schedules replayable.
  void SetParkObserver(std::function<void(int)> observer);

 private:
  struct Waiter {
    SessionId sid = 0;
    crowd::AsyncOracle::Completion done;
    Tick asked_at = 0;
  };

  /// One signature's state. Until the answer arrives the entry keeps its
  /// question, which only the retry path reads; Resolve releases it, so an
  /// answered entry holds its key, its result and its attempt counter.
  struct Entry {
    std::unique_ptr<crowd::Question> question;  // null once answered
    bool answered = false;
    std::optional<crowd::Answer> answer;  // when answered: set XOR status !ok
    common::Status status;
    size_t attempt = 0;  // current (1-based) attempt; older attempts are stale
    std::vector<Waiter> waiters;
  };

  /// Sends attempt `attempt` of `sig` to the oracle and arms its timeout.
  /// Called outside the lock.
  void IssueAttempt(const std::string& sig, size_t attempt,
                    const crowd::Question& q);

  void OnCompletion(const std::string& sig, size_t attempt,
                    common::Result<crowd::Answer> result);
  void OnTimeout(const std::string& sig, size_t attempt);

  /// Marks `e` answered with `result`, releases its question, drains its
  /// waiters and records their latency samples. Returns the drained waiters
  /// for fan-out (which the caller performs after unlocking).
  std::vector<Waiter> Resolve(Entry* e, common::Result<crowd::Answer> result)
      QOCO_REQUIRES(mu_);

  common::Result<crowd::Answer> EntryResult(const Entry& e) const
      QOCO_REQUIRES(mu_);

  crowd::AsyncOracle* oracle_;
  Clock* clock_;
  BrokerConfig config_;

  mutable common::Mutex mu_;
  std::unordered_map<std::string, Entry, common::StringHash, std::equal_to<>>
      entries_ QOCO_GUARDED_BY(mu_);
  BrokerStats stats_ QOCO_GUARDED_BY(mu_);
  std::map<SessionId, crowd::SessionAttribution> attribution_
      QOCO_GUARDED_BY(mu_);
  std::vector<Tick> latency_samples_ QOCO_GUARDED_BY(mu_);
  std::function<void(int)> park_observer_ QOCO_GUARDED_BY(mu_);
};

}  // namespace qoco::service

#endif  // QOCO_SERVICE_QUESTION_BROKER_H_
