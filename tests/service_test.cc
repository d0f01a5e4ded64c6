// Deterministic harness for the session service (src/service/): a FakeClock,
// a scripted-latency TestAsyncOracle and a schedule-driven multi-session
// driver — no sleeps, no wall-clock time anywhere. On top of it:
//
//  * fault injection: oracle timeouts (retry with doubling backoff, clean
//    DeadlineExceeded after max_attempts), dropped completions, duplicated
//    completions, and answers arriving after a session already failed —
//    never double-applied, always counted;
//  * the cross-session dedup guarantee: N >= 8 concurrent sessions over
//    overlapping Figure-1 soccer facts produce byte-identical edit
//    transcripts and final facts vs. their solo runs, while the broker
//    issues exactly one oracle question per distinct signature — at thread
//    counts 1, 2 and 8;
//  * admission control, admission that keeps every base value exact,
//    snapshot isolation and in-order commit;
//  * bounded state: a finished session's database is freed on the
//    coordinator, and Wait hands each result over once, rendering its
//    final facts from the snapshot and the journal (also on a pool thread
//    while another session runs, and for a session whose step failed).
//
// One test leaves the harness on purpose: crowd::BlockingOracleAdapter is
// exercised over a RealtimeClock, the pairing a deployment uses.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/thread_safety.h"
#include "src/crowd/async_oracle.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/question_log.h"
#include "src/crowd/simulated_oracle.h"
#include "src/qoco/session.h"
#include "src/query/parser.h"
#include "src/relational/csv.h"
#include "src/relational/database.h"
#include "src/relational/journal.h"
#include "src/service/broker_oracle.h"
#include "src/service/clock.h"
#include "src/service/question_broker.h"
#include "src/service/session_manager.h"
#include "src/workload/figure_one.h"
#include "src/workload/noise.h"
#include "src/workload/soccer.h"

namespace qoco::service {
namespace {

using crowd::Answer;
using crowd::Question;
using relational::Tuple;
using relational::Value;

constexpr char kQ1[] =
    "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
    "Teams(x, 'EU'), d1 != d2.";
constexpr char kQ2[] =
    "(x) :- Players(x, y, z, w), Goals(x, d), "
    "Games(d, y, v, 'Final', u), Teams(y, 'EU').";

// ---------------------------------------------------------------------------
// Harness piece 1: scripted-latency async oracle.

/// What the transport does with one oracle attempt.
struct OracleBehavior {
  Tick latency = 0;        // completion delivered at Now() + latency
  size_t deliver_count = 1;  // 0 = dropped, 2 = duplicated
  bool fail = false;       // deliver an error instead of the answer
};

/// Async oracle for the deterministic harness: answers are computed from the
/// wrapped blocking oracle immediately (so they stay a pure function of the
/// question), but their *delivery* is scripted per (question, attempt
/// index) and scheduled on the FakeClock. Also records, per signature, the
/// tick of every attempt the broker issued — the backoff assertions read
/// these directly.
class TestAsyncOracle : public crowd::AsyncOracle {
 public:
  using Script = std::function<OracleBehavior(const Question&, size_t)>;

  TestAsyncOracle(crowd::Oracle* inner, FakeClock* clock)
      : inner_(inner), clock_(clock) {}

  void set_script(Script script) {
    common::MutexLock lk(mu_);
    script_ = std::move(script);
  }

  void Ask(const Question& q, Completion done) override {
    OracleBehavior behavior;
    std::optional<common::Result<Answer>> result;
    {
      common::MutexLock lk(mu_);
      std::vector<Tick>& ticks = issue_ticks_[q.Signature()];
      if (script_) behavior = script_(q, ticks.size());
      ticks.push_back(clock_->Now());
      // The inner oracle is consulted under the lock: concurrent sessions
      // may Ask from different pool workers, and the blocking oracles are
      // not required to support concurrent calls.
      if (behavior.fail) {
        result = common::Status::Internal("scripted oracle failure");
      } else {
        result = crowd::AskOracleBlocking(inner_, q);
      }
    }
    for (size_t i = 0; i < behavior.deliver_count; ++i) {
      clock_->RunAt(clock_->Now() + behavior.latency,
                    [done, result] { done(*result); });
    }
  }

  std::vector<Tick> IssueTicks(const std::string& sig) const {
    common::MutexLock lk(mu_);
    auto it = issue_ticks_.find(sig);
    return it == issue_ticks_.end() ? std::vector<Tick>{} : it->second;
  }

  size_t TotalIssues() const {
    common::MutexLock lk(mu_);
    size_t total = 0;
    // qoco-lint: allow(unordered-iteration): order-insensitive sum
    for (const auto& [sig, ticks] : issue_ticks_) total += ticks.size();
    return total;
  }

 private:
  crowd::Oracle* inner_;
  FakeClock* clock_;
  mutable common::Mutex mu_;
  Script script_ QOCO_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::vector<Tick>> issue_ticks_
      QOCO_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Harness piece 2: schedule-driven multi-session runner.

/// Advances the FakeClock exactly when every running session is parked on a
/// crowd question, i.e. when nothing can make progress without time
/// passing. Park (+1/-1) events come from the broker, finish events from
/// the manager; both are counter updates under one mutex — the driver never
/// sleeps or reads a wall clock.
class ScheduleDriver {
 public:
  explicit ScheduleDriver(FakeClock* clock) : clock_(clock) {}

  void Attach(QuestionBroker* broker, SessionManager* manager) {
    manager_ = manager;
    broker->SetParkObserver([this](int delta) {
      common::MutexLock lk(mu_);
      parked_ += delta;
      version_++;
      cv_.notify_all();
    });
    manager->SetFinishObserver([this](SessionId) {
      common::MutexLock lk(mu_);
      finished_++;
      version_++;
      cv_.notify_all();
    });
  }

  void AddLive(size_t n) {
    common::MutexLock lk(mu_);
    live_ += n;
  }

  /// Runs the schedule to completion: waits until every running session is
  /// parked, then releases the earliest pending deadline, repeating until
  /// all live sessions finished. A genuinely stuck schedule (everything
  /// parked, clock empty, no observer event ever follows) blocks here
  /// forever and is surfaced by the test timeout. Always returns true.
  bool Drive() {
    while (true) {
      uint64_t seen;
      {
        common::MutexLock lk(mu_);
        while (true) {
          if (finished_ >= live_) return true;
          if (parked_ > 0 &&
              static_cast<size_t>(parked_) >= manager_->RunningSessions()) {
            break;
          }
          cv_.wait(lk);
        }
        seen = version_;
      }
      if (clock_->AdvanceToNextDue()) continue;
      // Clock empty while sessions look parked: the park counters are
      // stale — sessions whose answers were just fanned out have not woken
      // yet. Wait for the next observer event and re-evaluate.
      common::MutexLock lk(mu_);
      while (version_ == seen && finished_ < live_) cv_.wait(lk);
    }
  }

 private:
  FakeClock* clock_;
  SessionManager* manager_ = nullptr;
  common::Mutex mu_;
  std::condition_variable_any cv_;
  int parked_ QOCO_GUARDED_BY(mu_) = 0;
  size_t finished_ QOCO_GUARDED_BY(mu_) = 0;
  size_t live_ QOCO_GUARDED_BY(mu_) = 0;
  uint64_t version_ QOCO_GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------------
// Shared fixtures.

/// One fully wired service stack: a perfect crowd over `truth` and a
/// manager over the base `dirty` (by default the Figure-1 sample).
struct ServiceStack {
  FakeClock clock;
  crowd::SimulatedOracle sim;
  TestAsyncOracle oracle;
  QuestionBroker broker;
  common::ThreadPool pool;
  SessionManager manager;

  ServiceStack(const relational::Database* dirty,
               const relational::Database* truth, size_t threads,
               BrokerConfig config = {}, ServiceLimits limits = {})
      : sim(truth),
        oracle(&sim, &clock),
        broker(&oracle, &clock, config),
        pool(threads),
        manager(dirty, &broker, &pool, limits) {}

  ServiceStack(const workload::FigureOneSample& s, size_t threads,
               BrokerConfig config = {}, ServiceLimits limits = {})
      : ServiceStack(s.dirty.get(), s.ground_truth.get(), threads, config,
                     limits) {}
};

SessionSpec SpecOf(std::vector<std::string> queries, uint64_t seed) {
  SessionSpec spec;
  for (std::string& q : queries) {
    spec.steps.push_back(
        {SessionSpec::Step::Kind::kCleanView, std::move(q)});
  }
  spec.seed = seed;
  return spec;
}

/// The solo reference: a plain serial qoco::Session over a private copy of
/// the dirty database, no service layer at all. The service determinism
/// contract says every concurrent session must reproduce this byte for
/// byte.
struct DirectRun {
  std::string journal;
  std::string facts;
  std::string questions;
};

DirectRun RunDirect(const relational::Database& dirty, const SessionSpec& spec,
                    crowd::Oracle* oracle) {
  relational::Database db = dirty;
  Session::Options options;
  options.panel.sample_size = 1;
  options.seed = spec.seed;
  Session session(&db, {oracle}, options);
  for (const SessionSpec::Step& step : spec.steps) {
    auto stats = step.kind == SessionSpec::Step::Kind::kCleanView
                     ? session.CleanView(step.query_text)
                     : session.CleanUnionView(step.query_text);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }
  return {session.journal().contents(),
          relational::DatabaseToCsv(session.database()),
          crowd::ToString(session.questions())};
}

Question TestQuestion(const workload::FigureOneSample& s, const char* team) {
  return Question::FactTrue({s.teams, {Value(team), Value("EU")}});
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sample = workload::MakeFigureOneSample();
    ASSERT_TRUE(sample.ok());
    s_ = std::make_unique<workload::FigureOneSample>(std::move(sample).value());
  }

  std::unique_ptr<workload::FigureOneSample> s_;
};

// ---------------------------------------------------------------------------
// Harness units: the clock and the latch the whole file stands on.

TEST(FakeClockTest, RunsTasksInDeadlineThenScheduleOrder) {
  FakeClock clock;
  std::vector<std::string> ran;
  clock.RunAt(5, [&] { ran.push_back("t5"); });
  clock.RunAt(3, [&] {
    ran.push_back("t3a@" + std::to_string(clock.Now()));
  });
  clock.RunAt(3, [&] { ran.push_back("t3b"); });
  EXPECT_EQ(clock.PendingTasks(), 3u);
  ASSERT_TRUE(clock.NextDue().has_value());
  EXPECT_EQ(*clock.NextDue(), 3u);

  clock.AdvanceTo(10);
  EXPECT_EQ(ran, (std::vector<std::string>{"t3a@3", "t3b", "t5"}));
  EXPECT_EQ(clock.Now(), 10u);
  EXPECT_EQ(clock.PendingTasks(), 0u);
  EXPECT_FALSE(clock.AdvanceToNextDue());
}

TEST(FakeClockTest, DueNowRunsInlineAndTasksMayReschedule) {
  FakeClock clock;
  int inline_runs = 0;
  clock.RunAt(0, [&] { inline_runs++; });  // due now: inline
  EXPECT_EQ(inline_runs, 1);
  EXPECT_EQ(clock.PendingTasks(), 0u);

  // A task scheduling a follow-up inside the advance window: both run.
  std::vector<Tick> fired;
  clock.RunAt(2, [&] {
    fired.push_back(clock.Now());
    clock.RunAt(4, [&] { fired.push_back(clock.Now()); });
  });
  clock.AdvanceBy(10);
  EXPECT_EQ(fired, (std::vector<Tick>{2, 4}));
}

TEST(FakeClockTest, ScheduleObserverFiresOnDeferredSchedulesOnly) {
  FakeClock clock;
  int observed = 0;
  clock.SetScheduleObserver([&] { observed++; });
  clock.RunAt(0, [] {});  // inline: no observation
  EXPECT_EQ(observed, 0);
  clock.RunAt(7, [] {});
  EXPECT_EQ(observed, 1);
}

TEST(NotificationTest, NotifyBeforeAndAfterWait) {
  common::Notification n;
  EXPECT_FALSE(n.HasBeenNotified());
  n.Notify();
  EXPECT_TRUE(n.HasBeenNotified());
  n.WaitForNotification();  // already notified: returns immediately

  common::Notification cross;
  common::ThreadPool pool(2);
  ASSERT_TRUE(pool.Submit([&] { cross.Notify(); }).ok());
  cross.WaitForNotification();
  EXPECT_TRUE(cross.HasBeenNotified());
}

// ---------------------------------------------------------------------------
// Broker state machine, driven directly (single-threaded, scripted time).

TEST_F(ServiceTest, BrokerDedupsInFlightAndCachesAnswers) {
  FakeClock clock;
  crowd::SimulatedOracle sim(s_->ground_truth.get());
  TestAsyncOracle oracle(&sim, &clock);
  QuestionBroker broker(&oracle, &clock);
  oracle.set_script([](const Question&, size_t) {
    return OracleBehavior{.latency = 5};
  });

  Question q = TestQuestion(*s_, "GER");
  std::vector<bool> answers;
  auto record = [&](common::Result<Answer> r) {
    ASSERT_TRUE(r.ok());
    answers.push_back(r->yes);
  };
  broker.Ask(1, q, record);
  broker.Ask(2, q, record);  // joins the in-flight question
  EXPECT_TRUE(answers.empty());
  EXPECT_EQ(broker.DistinctQuestions(), 1u);

  clock.AdvanceTo(5);  // one delivery fans out to both waiters
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_TRUE(answers[0]);  // Teams(GER, EU) is true in the ground truth

  broker.Ask(3, q, record);  // answered: served inline from the cache
  ASSERT_EQ(answers.size(), 3u);

  BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.asked, 3u);
  EXPECT_EQ(stats.oracle_issues, 1u);
  EXPECT_EQ(stats.joined_inflight, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(oracle.TotalIssues(), 1u);
  // Latency accounting: two waiters answered after 5 ticks, one free cache
  // hit. Samples are aggregate-only (no order contract): assert the
  // multiset.
  std::vector<Tick> samples = broker.LatencySamples();
  std::multiset<Tick> sample_set(samples.begin(), samples.end());
  EXPECT_EQ(sample_set, (std::multiset<Tick>{0, 5, 5}));

  crowd::SessionAttribution a1 = broker.SessionStats(1);
  EXPECT_EQ(a1.issued, 1u);
  EXPECT_EQ(broker.SessionStats(2).joined, 1u);
  EXPECT_EQ(broker.SessionStats(3).cache_hits, 1u);
}

TEST_F(ServiceTest, BrokerKeepsFactsThatOnlyRenderAlikeApart) {
  // Teams("a, b", "c") and Teams("a", "b, c") print alike; they are two
  // questions, so the broker issues both.
  FakeClock clock;
  crowd::SimulatedOracle sim(s_->ground_truth.get());
  TestAsyncOracle oracle(&sim, &clock);
  QuestionBroker broker(&oracle, &clock);
  size_t answered = 0;
  auto record = [&](common::Result<Answer> r) {
    ASSERT_TRUE(r.ok());
    ++answered;
  };
  broker.Ask(1, Question::FactTrue({s_->teams, {Value("a, b"), Value("c")}}),
             record);
  broker.Ask(2, Question::FactTrue({s_->teams, {Value("a"), Value("b, c")}}),
             record);
  clock.AdvanceTo(10);
  EXPECT_EQ(answered, 2u);
  EXPECT_EQ(broker.DistinctQuestions(), 2u);
  EXPECT_EQ(oracle.TotalIssues(), 2u);
}

TEST_F(ServiceTest, BrokerTimeoutBacksOffDoublingThenFailsCleanly) {
  FakeClock clock;
  crowd::SimulatedOracle sim(s_->ground_truth.get());
  TestAsyncOracle oracle(&sim, &clock);
  QuestionBroker broker(&oracle, &clock,
                        BrokerConfig{.timeout_ticks = 10, .max_attempts = 3});
  // Every attempt takes 100 ticks: far beyond every deadline.
  oracle.set_script([](const Question&, size_t) {
    return OracleBehavior{.latency = 100};
  });

  Question q = TestQuestion(*s_, "ESP");
  std::string sig = q.Signature();
  std::optional<common::Status> failure;
  broker.Ask(1, q, [&](common::Result<Answer> r) {
    ASSERT_FALSE(r.ok());
    failure = r.status();
  });

  // Attempt 1 at t=0 (deadline 10), attempt 2 at t=10 (deadline 10+20),
  // attempt 3 at t=30 (deadline 30+40=70) — doubling backoff.
  clock.AdvanceTo(9);
  EXPECT_EQ(oracle.IssueTicks(sig), (std::vector<Tick>{0}));
  clock.AdvanceTo(29);
  EXPECT_EQ(oracle.IssueTicks(sig), (std::vector<Tick>{0, 10}));
  clock.AdvanceTo(69);
  EXPECT_EQ(oracle.IssueTicks(sig), (std::vector<Tick>{0, 10, 30}));
  EXPECT_FALSE(failure.has_value());

  clock.AdvanceTo(70);  // final deadline: fail every waiter, cleanly
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->code(), common::StatusCode::kDeadlineExceeded);

  BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.timeouts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.failed_questions, 1u);
  EXPECT_EQ(broker.SessionStats(1).failures, 1u);

  // The three in-flight completions (due at 100, 110, 130) now straggle in:
  // counted as duplicates, never re-applied, no crash.
  clock.AdvanceTo(200);
  EXPECT_EQ(broker.stats().duplicate_completions, 3u);

  // The failure is cached: asking again fails inline without a new issue.
  std::optional<common::Status> second;
  broker.Ask(2, q, [&](common::Result<Answer> r) { second = r.status(); });
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(oracle.IssueTicks(sig).size(), 3u);
}

TEST_F(ServiceTest, BrokerRetriesDroppedCompletion) {
  FakeClock clock;
  crowd::SimulatedOracle sim(s_->ground_truth.get());
  TestAsyncOracle oracle(&sim, &clock);
  QuestionBroker broker(&oracle, &clock,
                        BrokerConfig{.timeout_ticks = 5, .max_attempts = 3});
  // First attempt's completion is dropped by the transport; the retry
  // delivers normally after 2 ticks.
  oracle.set_script([](const Question&, size_t issue) {
    return OracleBehavior{.latency = 2,
                          .deliver_count = issue == 0 ? size_t{0} : size_t{1}};
  });

  Question q = TestQuestion(*s_, "GER");
  std::optional<bool> answer;
  broker.Ask(1, q, [&](common::Result<Answer> r) {
    ASSERT_TRUE(r.ok());
    answer = r->yes;
  });
  clock.AdvanceTo(100);
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(*answer);
  EXPECT_EQ(oracle.IssueTicks(q.Signature()), (std::vector<Tick>{0, 5}));
  BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failed_questions, 0u);
}

TEST_F(ServiceTest, BrokerDiscardsDuplicatedCompletion) {
  FakeClock clock;
  crowd::SimulatedOracle sim(s_->ground_truth.get());
  TestAsyncOracle oracle(&sim, &clock);
  QuestionBroker broker(&oracle, &clock);
  oracle.set_script([](const Question&, size_t) {
    return OracleBehavior{.latency = 1, .deliver_count = 2};
  });

  Question q = TestQuestion(*s_, "GER");
  int deliveries = 0;
  broker.Ask(1, q, [&](common::Result<Answer> r) {
    ASSERT_TRUE(r.ok());
    deliveries++;
  });
  clock.AdvanceTo(10);
  EXPECT_EQ(deliveries, 1);  // exactly once, despite two completions
  EXPECT_EQ(broker.stats().duplicate_completions, 1u);
}

TEST_F(ServiceTest, BrokerAcceptsLateAnswerFromSupersededAttempt) {
  FakeClock clock;
  crowd::SimulatedOracle sim(s_->ground_truth.get());
  TestAsyncOracle oracle(&sim, &clock);
  QuestionBroker broker(&oracle, &clock,
                        BrokerConfig{.timeout_ticks = 5, .max_attempts = 3});
  // Every attempt takes 20 ticks, so attempt 1 (t=0) is superseded at t=5
  // and attempt 2 (t=5) at t=15; attempt 1's answer lands at t=20 while
  // attempt 3 (issued t=15, due t=35) is still in flight — the late answer
  // is accepted; the other two deliveries become duplicates.
  oracle.set_script([](const Question&, size_t) {
    return OracleBehavior{.latency = 20};
  });

  Question q = TestQuestion(*s_, "GER");
  std::optional<Tick> answered_at;
  broker.Ask(1, q, [&](common::Result<Answer> r) {
    ASSERT_TRUE(r.ok());
    answered_at = clock.Now();
  });
  clock.AdvanceTo(100);
  ASSERT_TRUE(answered_at.has_value());
  EXPECT_EQ(*answered_at, 20u);
  EXPECT_EQ(oracle.IssueTicks(q.Signature()), (std::vector<Tick>{0, 5, 15}));
  BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.late_completions, 1u);
  EXPECT_EQ(stats.duplicate_completions, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.timeouts, 2u);
  EXPECT_EQ(stats.failed_questions, 0u);
}

TEST_F(ServiceTest, BrokerRetriesScriptedErrorCompletions) {
  FakeClock clock;
  crowd::SimulatedOracle sim(s_->ground_truth.get());
  TestAsyncOracle oracle(&sim, &clock);
  QuestionBroker broker(&oracle, &clock,
                        BrokerConfig{.timeout_ticks = 50, .max_attempts = 3});
  oracle.set_script([](const Question&, size_t issue) {
    return OracleBehavior{.latency = 1, .fail = issue == 0};
  });

  Question q = TestQuestion(*s_, "GER");
  std::optional<bool> answer;
  broker.Ask(1, q, [&](common::Result<Answer> r) {
    ASSERT_TRUE(r.ok());
    answer = r->yes;
  });
  clock.AdvanceTo(10);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(broker.stats().retries, 1u);
  EXPECT_EQ(oracle.IssueTicks(q.Signature()).size(), 2u);
}

// ---------------------------------------------------------------------------
// Service end-to-end over the deterministic harness.

TEST_F(ServiceTest, SoloServiceSessionMatchesDirectSession) {
  SessionSpec spec = SpecOf({kQ1, kQ2}, /*seed=*/11);
  crowd::SimulatedOracle reference_oracle(s_->ground_truth.get());
  DirectRun reference = RunDirect(*s_->dirty, spec, &reference_oracle);
  ASSERT_FALSE(reference.journal.empty());

  ServiceStack st(*s_, /*threads=*/1);  // inline pool, zero-latency oracle
  auto id = st.manager.Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto result = st.manager.Wait(*id);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();

  EXPECT_EQ(result->journal, reference.journal);
  EXPECT_EQ(result->final_facts_csv, reference.facts);
  EXPECT_EQ(crowd::ToString(result->questions), reference.questions);
  // One session, fresh broker: every ask was issued, none shared.
  EXPECT_EQ(result->attribution.asked, result->attribution.issued);
  EXPECT_EQ(st.manager.CommitJournalContents(), reference.journal);
}

/// The dedup contract, end to end: 8 sessions over overlapping views, three
/// thread counts, transcripts pinned to solo runs, and the oracle issue
/// count pinned to the number of distinct question signatures.
TEST_F(ServiceTest, CrossSessionDedupPinsTranscriptsAndQuestionCount) {
  // Eight overlapping specs: all clean Q1, every other one also cleans Q2.
  std::vector<SessionSpec> specs;
  for (uint64_t i = 0; i < 8; ++i) {
    specs.push_back(i % 2 == 0 ? SpecOf({kQ1}, 100 + i)
                               : SpecOf({kQ1, kQ2}, 100 + i));
  }

  // References: plain serial sessions, no service layer.
  std::vector<DirectRun> reference;
  for (const SessionSpec& spec : specs) {
    crowd::SimulatedOracle oracle(s_->ground_truth.get());
    reference.push_back(RunDirect(*s_->dirty, spec, &oracle));
  }

  // Solo service runs (one fresh stack per spec) both re-check the solo
  // contract and collect each spec's question signatures; the union is the
  // exact number of questions the shared broker must issue.
  std::set<std::string> distinct_sigs;
  for (size_t i = 0; i < specs.size(); ++i) {
    ServiceStack solo(*s_, /*threads=*/1);
    auto id = solo.manager.Submit(specs[i]);
    ASSERT_TRUE(id.ok());
    auto result = solo.manager.Wait(*id);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->status.ok());
    EXPECT_EQ(result->journal, reference[i].journal) << "solo spec " << i;
    EXPECT_EQ(result->final_facts_csv, reference[i].facts);
    for (const std::string& sig : solo.broker.KnownSignatures()) {
      distinct_sigs.insert(sig);
    }
  }
  ASSERT_FALSE(distinct_sigs.empty());

  // Width 0 builds ThreadPool(0), which reads its width from QOCO_THREADS
  // (else the hardware), so the loop branches on the resolved width.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}, size_t{0}}) {
    ServiceStack st(*s_, threads);
    const size_t width = st.pool.num_threads();
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " width=" + std::to_string(width));
    ScheduleDriver driver(&st.clock);
    if (width > 1) {
      // Real concurrency: 1-tick oracle latency so sessions genuinely
      // overlap and park; the driver releases time step by step.
      st.oracle.set_script([](const Question&, size_t) {
        return OracleBehavior{.latency = 1};
      });
      driver.Attach(&st.broker, &st.manager);
      driver.AddLive(specs.size());
    }
    std::vector<SessionId> ids;
    for (const SessionSpec& spec : specs) {
      auto id = st.manager.Submit(spec);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }
    if (width > 1) {
      ASSERT_TRUE(driver.Drive()) << "schedule deadlocked";
    }
    st.manager.WaitIdle();

    for (size_t i = 0; i < ids.size(); ++i) {
      auto result = st.manager.Wait(ids[i]);
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(result->status.ok()) << result->status.ToString();
      // Byte-identical to the solo serial run: the determinism contract.
      EXPECT_EQ(result->journal, reference[i].journal)
          << "session " << i << " transcript diverged";
      EXPECT_EQ(result->final_facts_csv, reference[i].facts);
      EXPECT_EQ(crowd::ToString(result->questions), reference[i].questions);
      // Per-session attribution is internally consistent.
      const crowd::SessionAttribution& a = result->attribution;
      EXPECT_EQ(a.asked, a.issued + a.joined + a.cache_hits)
          << crowd::ToString(a);
    }

    // Exactly one oracle question per distinct signature — dedup measured,
    // not guessed.
    BrokerStats stats = st.broker.stats();
    EXPECT_EQ(stats.oracle_issues, distinct_sigs.size());
    EXPECT_EQ(st.oracle.TotalIssues(), distinct_sigs.size());
    std::vector<std::string> expected(distinct_sigs.begin(),
                                      distinct_sigs.end());
    EXPECT_EQ(st.broker.KnownSignatures(), expected);
    EXPECT_EQ(stats.asked, stats.oracle_issues + stats.joined_inflight +
                               stats.cache_hits);
    // With 8 overlapping sessions the sharing must at least halve the
    // crowd bill.
    EXPECT_GE(stats.asked, 2 * stats.oracle_issues);

    // Attribution across sessions sums to the broker totals.
    size_t issued = 0, asked = 0;
    for (SessionId id : ids) {
      crowd::SessionAttribution a = st.broker.SessionStats(id);
      issued += a.issued;
      asked += a.asked;
    }
    EXPECT_EQ(issued, stats.oracle_issues);
    EXPECT_EQ(asked, stats.asked);
  }
}

TEST_F(ServiceTest, StatelessImperfectOracleTranscriptsPinnedAcrossThreads) {
  std::vector<SessionSpec> specs;
  for (uint64_t i = 0; i < 4; ++i) specs.push_back(SpecOf({kQ1}, 300 + i));

  // Solo reference: each spec through its own service stack over a fresh
  // stateless ImperfectOracle (same seed — stateless answers depend only on
  // (seed, signature), so instances are interchangeable).
  std::vector<std::string> solo_journals;
  std::vector<std::string> solo_facts;
  for (const SessionSpec& spec : specs) {
    crowd::ImperfectOracle erring(s_->ground_truth.get(), /*error_rate=*/0.1,
                                  /*seed=*/42, /*stateless=*/true);
    FakeClock clock;
    TestAsyncOracle oracle(&erring, &clock);
    QuestionBroker broker(&oracle, &clock);
    common::ThreadPool pool(1);
    SessionManager manager(s_->dirty.get(), &broker, &pool);
    auto id = manager.Submit(spec);
    ASSERT_TRUE(id.ok());
    auto result = manager.Wait(*id);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->status.ok());
    solo_journals.push_back(result->journal);
    solo_facts.push_back(result->final_facts_csv);
  }

  // Concurrent at 8 threads over one shared erring member: still pinned.
  crowd::ImperfectOracle erring(s_->ground_truth.get(), 0.1, 42,
                                /*stateless=*/true);
  FakeClock clock;
  TestAsyncOracle oracle(&erring, &clock);
  oracle.set_script(
      [](const Question&, size_t) { return OracleBehavior{.latency = 1}; });
  QuestionBroker broker(&oracle, &clock);
  common::ThreadPool pool(8);
  SessionManager manager(s_->dirty.get(), &broker, &pool);
  ScheduleDriver driver(&clock);
  driver.Attach(&broker, &manager);
  driver.AddLive(specs.size());
  std::vector<SessionId> ids;
  for (const SessionSpec& spec : specs) {
    auto id = manager.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(driver.Drive());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto result = manager.Wait(ids[i]);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->status.ok());
    EXPECT_EQ(result->journal, solo_journals[i]) << "erring session " << i;
    EXPECT_EQ(result->final_facts_csv, solo_facts[i]);
  }
}

TEST_F(ServiceTest, OracleFailureFailsSessionCleanlyAndLateAnswerIsDiscarded) {
  // One attempt, 5-tick deadline, 50-tick oracle: the first question times
  // out, the session fails closed with DeadlineExceeded, commits nothing —
  // and the answer that arrives after the session finished is discarded.
  ServiceStack st(*s_, /*threads=*/2,
                  BrokerConfig{.timeout_ticks = 5, .max_attempts = 1});
  st.oracle.set_script(
      [](const Question&, size_t) { return OracleBehavior{.latency = 50}; });
  ScheduleDriver driver(&st.clock);
  driver.Attach(&st.broker, &st.manager);
  driver.AddLive(1);

  auto id = st.manager.Submit(SpecOf({kQ1}, 1));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(driver.Drive());
  auto result = st.manager.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result->journal.empty());
  EXPECT_EQ(result->final_facts_csv, relational::DatabaseToCsv(*s_->dirty));
  EXPECT_TRUE(st.manager.CommitJournalContents().empty());
  EXPECT_EQ(result->attribution.failures, 1u);
  EXPECT_EQ(st.broker.stats().failed_questions, 1u);

  // The oracle's real answer straggles in at t=50, long after the question
  // failed (and typically after the session finished): discarded and
  // counted, never applied.
  st.clock.AdvanceTo(100);
  EXPECT_EQ(st.broker.stats().duplicate_completions, 1u);
  EXPECT_TRUE(st.manager.CommitJournalContents().empty());  // not re-applied

  // The service stays healthy: a later session under a working transport
  // (fresh scope — the failed signature stays failed) runs to completion.
  st.oracle.set_script({});
  SessionSpec retry_spec = SpecOf({kQ1}, 1);
  retry_spec.scope = "member0-retry";
  crowd::SimulatedOracle reference_oracle(s_->ground_truth.get());
  DirectRun reference = RunDirect(*s_->dirty, retry_spec, &reference_oracle);
  // Driven like the first session, so its finish observer has returned
  // before `driver` goes out of scope.
  driver.AddLive(1);
  auto id2 = st.manager.Submit(retry_spec);
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(driver.Drive());
  auto result2 = st.manager.Wait(*id2);
  ASSERT_TRUE(result2.ok());
  ASSERT_TRUE(result2->status.ok()) << result2->status.ToString();
  EXPECT_EQ(result2->journal, reference.journal);
  EXPECT_EQ(st.manager.CommitJournalContents(), reference.journal);
}

TEST_F(ServiceTest, AdmissionControlQueuesThenRejects) {
  ServiceStack st(*s_, /*threads=*/2, BrokerConfig{},
                  ServiceLimits{.max_active_sessions = 1,
                                .max_queued_sessions = 1});
  st.oracle.set_script(
      [](const Question&, size_t) { return OracleBehavior{.latency = 1}; });
  ScheduleDriver driver(&st.clock);
  driver.Attach(&st.broker, &st.manager);
  driver.AddLive(2);

  auto id1 = st.manager.Submit(SpecOf({kQ1}, 1));
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(st.manager.ActiveSessions(), 1u);
  auto id2 = st.manager.Submit(SpecOf({kQ1}, 2));
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(st.manager.QueuedSessions(), 1u);
  // Active slot taken, queue full: admission fails fast, no session state.
  auto id3 = st.manager.Submit(SpecOf({kQ1}, 3));
  ASSERT_FALSE(id3.ok());
  EXPECT_EQ(id3.status().code(), common::StatusCode::kResourceExhausted);

  ASSERT_TRUE(driver.Drive());
  st.manager.WaitIdle();
  EXPECT_EQ(st.manager.ActiveSessions(), 0u);
  EXPECT_EQ(st.manager.QueuedSessions(), 0u);
  for (SessionId id : {*id1, *id2}) {
    auto result = st.manager.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  }
}

TEST_F(ServiceTest, SnapshotIsolationAndInOrderCommit) {
  ServiceStack st(*s_, /*threads=*/1);

  // Session 1 repairs Q1 against the pure base and commits.
  auto id1 = st.manager.Submit(SpecOf({kQ1}, 1));
  ASSERT_TRUE(id1.ok());
  auto r1 = st.manager.Wait(*id1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1->status.ok());
  ASSERT_FALSE(r1->journal.empty());
  EXPECT_EQ(st.manager.CommitJournalContents(), r1->journal);
  relational::JournalSnapshot head = st.manager.JournalHead();

  // Session 2 reads at `head`: Q1 is already clean in its view, so it
  // applies no edits.
  SessionSpec at_head = SpecOf({kQ1}, 2);
  at_head.base_snapshot = head;
  auto id2 = st.manager.Submit(at_head);
  ASSERT_TRUE(id2.ok());
  auto r2 = st.manager.Wait(*id2);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r2->status.ok());
  EXPECT_TRUE(r2->journal.empty());
  // Its final facts are rendered from the prefix it read: session 1's.
  EXPECT_EQ(r2->final_facts_csv, r1->final_facts_csv);

  // Session 3 reads the *pure base* (snapshot isolation: session 1's commit
  // is invisible) with session 1's seed, so it replays session 1's exact
  // question sequence — entirely from the broker's answer cache, issuing
  // zero new oracle questions.
  auto id3 = st.manager.Submit(SpecOf({kQ1}, 1));
  ASSERT_TRUE(id3.ok());
  auto r3 = st.manager.Wait(*id3);
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(r3->status.ok());
  EXPECT_EQ(r3->journal, r1->journal);
  EXPECT_EQ(r3->final_facts_csv, r1->final_facts_csv);
  EXPECT_EQ(r3->attribution.issued, 0u);
  EXPECT_EQ(r3->attribution.cache_hits, r3->attribution.asked);

  // Commits spliced in session-id order.
  EXPECT_EQ(st.manager.CommitJournalContents(), r1->journal + r3->journal);
}

/// A perfect crowd, except that COMPL(Q(D)) for the query signed
/// `wide_query` is answered with a tuple one value wider than the head,
/// which fails the insertion step that reads it.
class WideMissingAnswerOracle : public crowd::SimulatedOracle {
 public:
  WideMissingAnswerOracle(const relational::Database* truth,
                          std::string wide_query)
      : SimulatedOracle(truth), wide_query_(std::move(wide_query)) {}

  using SimulatedOracle::MissingAnswer;
  std::optional<Tuple> MissingAnswer(
      const query::CQuery& q, const std::vector<Tuple>& current) override {
    if (q.Signature() != wide_query_) {
      return SimulatedOracle::MissingAnswer(q, current);
    }
    return Tuple(q.head().size() + 1, Value("wide"));
  }

 private:
  std::string wide_query_;
};

/// A session whose second step fails after it applied an edit: step 1
/// repairs Q2 and journals it, step 2 removes Q1's wrong answer and then
/// fails on a malformed missing answer. The failed step journaled nothing,
/// so the session's final facts are its snapshot plus its journal, without
/// the removal its private database held.
TEST_F(ServiceTest, EditsOfAFailedStepStayOutOfFinalFacts) {
  common::Result<query::CQuery> q1 =
      query::ParseQuery(kQ1, s_->dirty->catalog());
  ASSERT_TRUE(q1.ok());
  WideMissingAnswerOracle wide(s_->ground_truth.get(), q1->Signature());
  const SessionSpec spec = SpecOf({kQ2, kQ1}, /*seed=*/5);

  // Run directly, the failed step leaves its removal in the database it
  // cleaned, though its journal never records it.
  relational::Database direct_db = *s_->dirty;
  Session::Options options;
  options.panel.sample_size = 1;
  options.seed = spec.seed;
  Session direct(&direct_db, {&wide}, options);
  ASSERT_TRUE(direct.CleanView(kQ2).ok());
  const std::string q2_journal = direct.journal().contents();
  ASSERT_FALSE(q2_journal.empty());
  EXPECT_EQ(direct.CleanView(*q1).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(direct.journal().contents(), q2_journal);

  FakeClock clock;
  TestAsyncOracle oracle(&wide, &clock);
  QuestionBroker broker(&oracle, &clock);
  common::ThreadPool pool(1);
  SessionManager manager(s_->dirty.get(), &broker, &pool);
  auto id = manager.Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto result = manager.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(result->journal, q2_journal);
  EXPECT_TRUE(manager.CommitJournalContents().empty());

  relational::Database journaled = *s_->dirty;
  ASSERT_TRUE(relational::ReplayJournal(result->journal, &journaled).ok());
  EXPECT_EQ(result->final_facts_csv, relational::DatabaseToCsv(journaled));
  EXPECT_NE(result->final_facts_csv, relational::DatabaseToCsv(direct_db));
}

TEST_F(ServiceTest, SubmitRejectsBadQueriesAndBadSnapshots) {
  ServiceStack st(*s_, /*threads=*/1);
  EXPECT_FALSE(st.manager.Submit(SpecOf({"(x) :- Nope(x)."}, 1)).ok());
  EXPECT_FALSE(st.manager.Submit(SpecOf({"garbage"}, 1)).ok());

  SessionSpec beyond = SpecOf({kQ1}, 1);
  beyond.base_snapshot = relational::JournalSnapshot{12345};
  auto id = st.manager.Submit(beyond);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), common::StatusCode::kInvalidArgument);

  // A snapshot three bytes short of the head cuts the last committed
  // record: replaying it would apply a prefix of a value as if it were whole.
  auto committed = st.manager.Submit(SpecOf({kQ1}, 1));
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(st.manager.Wait(*committed).ok());
  const relational::JournalSnapshot head = st.manager.JournalHead();
  ASSERT_GT(head.bytes, 3u);
  SessionSpec cut = SpecOf({kQ1}, 2);
  cut.base_snapshot = relational::JournalSnapshot{head.bytes - 3};
  auto cut_id = st.manager.Submit(cut);
  ASSERT_FALSE(cut_id.ok());
  EXPECT_EQ(cut_id.status().code(), common::StatusCode::kParseError);

  auto missing = st.manager.Wait(999);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);
}

/// Bounded state over many cycles: the manager holds a private database
/// only while its session runs, hands each result over once, and every
/// result still equals its solo run.
TEST_F(ServiceTest, FinishedSessionsFreeTheirDatabasesAndHandOverOnce) {
  std::vector<SessionSpec> specs;
  for (uint64_t i = 0; i < 8; ++i) {
    specs.push_back(i % 2 == 0 ? SpecOf({kQ1}, 200 + i)
                               : SpecOf({kQ1, kQ2}, 200 + i));
  }
  // View seeds are kept per signature of a first step's query.
  std::set<std::string> first_views;
  for (const SessionSpec& spec : specs) {
    auto q = query::ParseQuery(spec.steps.front().query_text,
                               s_->dirty->catalog());
    ASSERT_TRUE(q.ok());
    first_views.insert(q->Signature());
  }

  // Width 0 builds ThreadPool(0), which reads its width from QOCO_THREADS
  // (else the hardware), so the loop branches on the resolved width.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{0}}) {
    ServiceStack st(*s_, threads);
    const size_t width = st.pool.num_threads();
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " width=" + std::to_string(width));
    ScheduleDriver driver(&st.clock);
    if (width > 1) {
      st.oracle.set_script(
          [](const Question&, size_t) { return OracleBehavior{.latency = 1}; });
      driver.Attach(&st.broker, &st.manager);
    }
    for (size_t cycle = 0; cycle < 10; ++cycle) {
      SCOPED_TRACE("cycle=" + std::to_string(cycle));
      // Even sessions read the pure base and commit their repairs again,
      // so the head moves every cycle; odd ones read it.
      const relational::JournalSnapshot head = st.manager.JournalHead();
      relational::Database at_head = *s_->dirty;
      ASSERT_TRUE(relational::ReplayJournal(st.manager.CommitJournalContents(),
                                            &at_head)
                      .ok());
      std::vector<DirectRun> reference;
      for (size_t i = 0; i < specs.size(); ++i) {
        crowd::SimulatedOracle oracle(s_->ground_truth.get());
        reference.push_back(
            RunDirect(i % 2 == 0 ? *s_->dirty : at_head, specs[i], &oracle));
      }
      if (width > 1) driver.AddLive(specs.size());
      std::vector<SessionId> ids;
      for (size_t i = 0; i < specs.size(); ++i) {
        SessionSpec spec = specs[i];
        if (i % 2 == 1) spec.base_snapshot = head;
        // A fresh dedup scope: every cycle waits on the crowd again.
        spec.scope = "cycle" + std::to_string(cycle);
        auto id = st.manager.Submit(std::move(spec));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids.push_back(*id);
        if (width == 1) {
          // Inline, the session ran inside Submit, which then freed it.
          EXPECT_EQ(st.manager.PrivateDatabases(), 0u);
        }
      }
      if (width > 1) {
        // No session can finish before the driver lets time pass.
        EXPECT_EQ(st.manager.PrivateDatabases(), specs.size());
        ASSERT_TRUE(driver.Drive());
      }

      for (size_t i = 0; i < ids.size(); ++i) {
        auto result = st.manager.Wait(ids[i]);
        ASSERT_TRUE(result.ok());
        ASSERT_TRUE(result->status.ok()) << result->status.ToString();
        EXPECT_EQ(result->journal, reference[i].journal) << "session " << i;
        EXPECT_EQ(result->final_facts_csv, reference[i].facts);
        EXPECT_EQ(crowd::ToString(result->questions), reference[i].questions);
      }
      EXPECT_EQ(st.manager.PrivateDatabases(), 0u);
      for (SessionId id : ids) {
        EXPECT_EQ(st.manager.Wait(id).status().code(),
                  common::StatusCode::kNotFound);
      }
      // One seed per first view, however many snapshots were read.
      EXPECT_GE(st.manager.ViewSeeds(), 1u);
      EXPECT_LE(st.manager.ViewSeeds(), first_views.size());
    }
    if (width == 1) {
      // Inline, sessions run in submission order, and from the second
      // cycle on each cycle's first head reader publishes a seed for the
      // new head that the cycle's other head readers adopt.
      EXPECT_GE(st.manager.ViewSeedAdoptions(), 9 * (specs.size() / 2 - 1));
    }
  }
}

/// Sessions that clean one view from one snapshot share its evaluation:
/// groups of them, over a noisy soccer instance, equal their solo runs at
/// every thread count, whether they read the pure base or a head taken
/// after commits.
TEST_F(ServiceTest, SessionsSharingAViewSeedMatchTheirSoloRuns) {
  workload::SoccerParams params;
  params.num_tournaments = 8;
  params.teams_per_tournament = 10;
  params.group_games_per_tournament = 8;
  params.players_per_team = 6;
  auto data = workload::MakeSoccerData(params);
  ASSERT_TRUE(data.ok());
  workload::NoiseParams noise;
  noise.seed = 1;
  auto dirty = workload::MakeDirty(*data->ground_truth, noise);
  ASSERT_TRUE(dirty.ok());
  const relational::Database& base = *dirty;
  const std::vector<std::string> views = workload::SoccerQueryTexts();
  constexpr size_t kViews = 4;
  constexpr size_t kGroup = 3;

  // Groups of kGroup sessions per view, each with its own rng seed.
  std::vector<SessionSpec> specs;
  for (size_t v = 1; v <= kViews; ++v) {
    for (size_t j = 0; j < kGroup; ++j) {
      specs.push_back(SpecOf({views[v]}, 500 + 10 * v + j));
    }
  }

  for (bool at_head : {false, true}) {
    // Width 0 builds ThreadPool(0), which reads its width from
    // QOCO_THREADS (else the hardware), so the loop branches on the
    // resolved width.
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}, size_t{0}}) {
      ServiceStack st(&base, data->ground_truth.get(), threads);
      const size_t width = st.pool.num_threads();
      SCOPED_TRACE(std::string(at_head ? "head" : "base") +
                   " threads=" + std::to_string(threads) +
                   " width=" + std::to_string(width));
      relational::JournalSnapshot snapshot;
      relational::Database from = base;
      if (at_head) {
        // A session over another view commits its repairs first, which
        // leaves the groups' views something to repair.
        auto id = st.manager.Submit(SpecOf({views[0]}, 900));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        auto result = st.manager.Wait(*id);
        ASSERT_TRUE(result.ok());
        ASSERT_TRUE(result->status.ok()) << result->status.ToString();
        snapshot = st.manager.JournalHead();
        ASSERT_GT(snapshot.bytes, 0u);
        ASSERT_TRUE(relational::ReplayJournal(
                        st.manager.CommitJournalContents(), &from)
                        .ok());
      }
      const size_t adopted_before = st.manager.ViewSeedAdoptions();

      std::vector<SessionId> ids;
      for (SessionSpec spec : specs) {
        spec.base_snapshot = snapshot;
        auto id = st.manager.Submit(std::move(spec));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids.push_back(*id);
      }
      st.manager.WaitIdle();
      size_t edited = 0;
      for (size_t i = 0; i < ids.size(); ++i) {
        crowd::SimulatedOracle oracle(data->ground_truth.get());
        DirectRun reference = RunDirect(from, specs[i], &oracle);
        auto result = st.manager.Wait(ids[i]);
        ASSERT_TRUE(result.ok());
        ASSERT_TRUE(result->status.ok()) << result->status.ToString();
        EXPECT_EQ(result->journal, reference.journal) << "session " << i;
        EXPECT_EQ(result->final_facts_csv, reference.facts) << "session " << i;
        EXPECT_EQ(crowd::ToString(result->questions), reference.questions)
            << "session " << i;
        if (!result->journal.empty()) ++edited;
      }
      // The sessions repair something, so erases follow the shared start.
      EXPECT_GT(edited, 0u);
      EXPECT_EQ(st.manager.ViewSeeds(), at_head ? kViews + 1 : kViews);
      const size_t adopted = st.manager.ViewSeedAdoptions() - adopted_before;
      EXPECT_LE(adopted, specs.size() - kViews);
      if (width == 1) {
        // Inline, the first session of each view makes the seed and the
        // rest of its group adopts it.
        EXPECT_EQ(adopted, specs.size() - kViews);
      }
    }
  }
}

TEST_F(ServiceTest, TwoWaitersOnOneSessionGetTheResultOnce) {
  SessionSpec spec = SpecOf({kQ1}, 7);
  crowd::SimulatedOracle reference_oracle(s_->ground_truth.get());
  DirectRun reference = RunDirect(*s_->dirty, spec, &reference_oracle);

  ServiceStack st(*s_, /*threads=*/2);
  st.oracle.set_script(
      [](const Question&, size_t) { return OracleBehavior{.latency = 1}; });
  ScheduleDriver driver(&st.clock);
  driver.Attach(&st.broker, &st.manager);
  driver.AddLive(1);
  auto id = st.manager.Submit(spec);
  ASSERT_TRUE(id.ok());

  std::optional<common::Result<SessionResult>> got[2];
  common::ThreadPool waiters(2);
  for (auto& slot : got) {
    auto wait = [&st, &slot, id = *id] { slot.emplace(st.manager.Wait(id)); };
    ASSERT_TRUE(waiters.Submit(wait).ok());
  }
  ASSERT_TRUE(driver.Drive());
  waiters.Wait();

  ASSERT_TRUE(got[0].has_value() && got[1].has_value());
  EXPECT_NE(got[0]->ok(), got[1]->ok()) << "exactly one waiter gets it";
  for (const auto& r : got) {
    if (!r->ok()) {
      EXPECT_EQ(r->status().code(), common::StatusCode::kNotFound);
      continue;
    }
    ASSERT_TRUE((*r)->status.ok()) << (*r)->status.ToString();
    EXPECT_EQ((*r)->journal, reference.journal);
  }
  EXPECT_EQ(st.manager.PrivateDatabases(), 0u);
}

/// Wait renders a finished session's final facts on a pool thread while
/// another session still runs on the manager's pool. Both only read the
/// shared dictionary, so under TSan this races the hand-over against a
/// worker.
TEST_F(ServiceTest, WaitRendersOnAPoolThreadWhileAnotherSessionRuns) {
  SessionSpec quick = SpecOf({kQ1}, 21);
  quick.scope = "quick";
  SessionSpec slow = SpecOf({kQ1, kQ2}, 22);
  slow.scope = "slow";
  std::vector<DirectRun> reference;
  for (const SessionSpec* spec : {&quick, &slow}) {
    crowd::SimulatedOracle oracle(s_->ground_truth.get());
    reference.push_back(RunDirect(*s_->dirty, *spec, &oracle));
  }

  ServiceStack st(*s_, /*threads=*/2);
  // The quick session never parks; the slow one parks a tick on each
  // question, so it is still running when the quick one finishes.
  st.oracle.set_script([](const Question& q, size_t) {
    return OracleBehavior{.latency = q.scope == "slow" ? Tick{1} : Tick{0}};
  });
  ScheduleDriver driver(&st.clock);
  driver.Attach(&st.broker, &st.manager);
  driver.AddLive(2);
  auto slow_id = st.manager.Submit(slow);
  ASSERT_TRUE(slow_id.ok());
  auto quick_id = st.manager.Submit(quick);
  ASSERT_TRUE(quick_id.ok());

  std::optional<common::Result<SessionResult>> quick_result;
  common::ThreadPool waiter(2);
  ASSERT_TRUE(waiter
                  .Submit([&st, &quick_result, id = *quick_id] {
                    quick_result.emplace(st.manager.Wait(id));
                  })
                  .ok());
  ASSERT_TRUE(driver.Drive());
  waiter.Wait();
  auto slow_result = st.manager.Wait(*slow_id);

  ASSERT_TRUE(quick_result.has_value() && quick_result->ok());
  ASSERT_TRUE(slow_result.ok());
  const SessionResult* results[] = {&quick_result->value(),
                                    &slow_result.value()};
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(results[i]->status.ok()) << results[i]->status.ToString();
    EXPECT_EQ(results[i]->journal, reference[i].journal) << "session " << i;
    EXPECT_EQ(results[i]->final_facts_csv, reference[i].facts);
  }
  EXPECT_EQ(st.manager.PrivateDatabases(), 0u);
}

/// crowd::BlockingOracleAdapter in front of the broker, answering inline and
/// from a dispatch pool, on a RealtimeClock: the session equals its solo
/// run and asks the crowd each question once.
TEST_F(ServiceTest, BlockingOracleAdapterSessionMatchesSoloRun) {
  SessionSpec spec = SpecOf({kQ1, kQ2}, 11);
  crowd::SimulatedOracle reference_oracle(s_->ground_truth.get());
  DirectRun reference = RunDirect(*s_->dirty, spec, &reference_oracle);

  for (size_t dispatch_width : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("dispatch_width=" + std::to_string(dispatch_width));
    crowd::SimulatedOracle sim(s_->ground_truth.get());
    std::unique_ptr<common::ThreadPool> dispatch;
    if (dispatch_width > 0) {
      dispatch = std::make_unique<common::ThreadPool>(dispatch_width);
    }
    crowd::BlockingOracleAdapter adapter(&sim, dispatch.get());
    RealtimeClock clock;
    QuestionBroker broker(&adapter, &clock);
    common::ThreadPool pool(2);
    SessionManager manager(s_->dirty.get(), &broker, &pool);

    auto id = manager.Submit(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    auto result = manager.Wait(*id);
    // The last completion may still be returning through the broker on a
    // dispatch worker; drain it before the broker goes out of scope.
    if (dispatch != nullptr) dispatch->Wait();
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->status.ok()) << result->status.ToString();
    EXPECT_EQ(result->journal, reference.journal);
    EXPECT_EQ(result->final_facts_csv, reference.facts);
    EXPECT_EQ(crowd::ToString(result->questions), reference.questions);
    EXPECT_EQ(result->attribution.asked, result->attribution.issued);
    EXPECT_EQ(broker.stats().oracle_issues, broker.DistinctQuestions());
  }
}

TEST_F(ServiceTest, UnionViewsRunThroughTheService) {
  SessionSpec spec;
  spec.steps.push_back({SessionSpec::Step::Kind::kCleanUnionView,
                        "(x) :- Teams(x, 'EU'); (x) :- Teams(x, 'SA')."});
  spec.seed = 5;
  crowd::SimulatedOracle reference_oracle(s_->ground_truth.get());
  DirectRun reference = RunDirect(*s_->dirty, spec, &reference_oracle);

  ServiceStack st(*s_, /*threads=*/1);
  auto id = st.manager.Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto result = st.manager.Wait(*id);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(result->journal, reference.journal);
  EXPECT_EQ(result->final_facts_csv, reference.facts);
}

/// Admission must hand a session every value of the base exactly, including
/// the ones a CSV round trip of the base can break: a string with an
/// embedded newline, and a double with more decimals than Value::ToString
/// prints. Over a clean base whose Notes column holds `note`, a session must
/// apply no edit and end exactly like its solo run over a copy.
void ExpectCleanAdmission(const Value& note) {
  relational::Catalog catalog;
  relational::RelationId notes = *catalog.AddRelation("Notes", {"id", "note"});
  relational::Database truth(&catalog);
  ASSERT_TRUE(truth.Insert({notes, {Value(1), note}}).ok());
  ASSERT_TRUE(truth.Insert({notes, {Value(2), Value("plain")}}).ok());
  const relational::Database base = truth;

  // The view's head returns the column that holds the value.
  SessionSpec spec = SpecOf({"(n) :- Notes(i, n)."}, /*seed=*/3);
  crowd::SimulatedOracle reference_oracle(&truth);
  DirectRun reference = RunDirect(base, spec, &reference_oracle);
  EXPECT_TRUE(reference.journal.empty());

  ServiceStack st(&base, &truth, /*threads=*/1);
  auto id = st.manager.Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto result = st.manager.Wait(*id);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(result->journal, "");
  EXPECT_EQ(result->final_facts_csv, reference.facts);
  EXPECT_EQ(crowd::ToString(result->questions), reference.questions);
}

TEST(ServiceAdmissionTest, AdmitsAStringWithANewline) {
  ExpectCleanAdmission(Value("two\nlines"));
}

TEST(ServiceAdmissionTest, AdmitsADoubleWithSevenDecimals) {
  ExpectCleanAdmission(Value(0.1234567));
}

}  // namespace
}  // namespace qoco::service
