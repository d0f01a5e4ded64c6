#ifndef QOCO_PERFBENCH_CROWD_METER_H_
#define QOCO_PERFBENCH_CROWD_METER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/trace.h"
#include "src/crowd/async_oracle.h"
#include "src/crowd/oracle.h"
#include "src/service/clock.h"

namespace perfbench {

/// Crowd-call accounting for sessions run on one thread: counts calls by
/// kind, adds up the time spent inside them, and records the engine time
/// between them (the "think" gaps an expert waits through). Engine time is
/// the process's CPU time, so the pool workers that help a session's
/// evaluations count, and time the host takes a vCPU away does not. The
/// crowd runs on the calling thread, so its share is that thread's CPU
/// time inside the calls. With an enabled trace each call becomes a
/// `crowd.<kind>` child of the current session span.
class CrowdMeter {
 public:
  enum class Kind { kFact, kAnswer, kComplete, kMissing };

  explicit CrowdMeter(TraceRecorder* trace) : trace_(trace) {}

  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Marks a session start: the first think gap runs from here.
  void BeginSession(int64_t parent_span, uint64_t session);
  /// Closes the session's last think gap.
  void EndSession();
  /// Wall time spent inside crowd calls since BeginSession.
  int64_t session_wait_ns() const { return session_wait_ns_; }
  /// CPU time spent inside crowd calls since BeginSession.
  int64_t session_crowd_cpu_ns() const { return session_crowd_cpu_ns_; }

  /// Called around every crowd call by TimedOracle.
  int64_t BeforeCall(Kind kind);
  void AfterCall(int64_t span);

  size_t fact_calls = 0;
  size_t answer_calls = 0;
  size_t open_calls = 0;
  int64_t wait_ns = 0;
  /// Think gaps in CPU ms, since the caller last cleared them.
  std::vector<double> think_ms;

 private:
  TraceRecorder* trace_;
  int64_t parent_span_ = -1;
  uint64_t session_ = 0;
  int64_t mark_cpu_ns_ = 0;  // process CPU at session start or call return
  int64_t call_start_ns_ = 0;
  int64_t call_start_cpu_ns_ = 0;  // thread CPU
  int64_t session_wait_ns_ = 0;
  int64_t session_crowd_cpu_ns_ = 0;
};

/// The crowd the benchmark supplies to cleaning sessions: forwards every
/// question to `inner` and accounts it in `meter`.
class TimedOracle : public qoco::crowd::Oracle {
 public:
  TimedOracle(qoco::crowd::Oracle* inner, CrowdMeter* meter)
      : inner_(inner), meter_(meter) {}

  bool IsFactTrue(const qoco::relational::Fact& fact) override;
  bool IsAnswerTrue(const qoco::query::CQuery& q,
                    const qoco::relational::Tuple& t) override;
  bool IsAnswerTrue(const qoco::query::UnionQuery& q,
                    const qoco::relational::Tuple& t) override;
  std::optional<qoco::query::Assignment> Complete(
      const qoco::query::CQuery& q,
      const qoco::query::Assignment& partial) override;
  std::optional<qoco::relational::Tuple> MissingAnswer(
      const qoco::query::CQuery& q,
      const std::vector<qoco::relational::Tuple>& current) override;
  std::optional<qoco::relational::Tuple> MissingAnswer(
      const qoco::query::UnionQuery& q,
      const std::vector<qoco::relational::Tuple>& current) override;

 private:
  qoco::crowd::Oracle* inner_;
  CrowdMeter* meter_;
};

/// A pure simulated crowd member whose answers are remembered by question
/// signature. The members are pure (an answer is a function of the question
/// alone), so once the warm-up pass has asked a question, later passes get
/// the same answer without re-running the simulation, which otherwise took
/// most of insert-panel's wall time and so most of its run. Calls are
/// serialized: the simulated oracle's lazy evaluator state is not meant for
/// concurrent use.
class MemoOracle : public qoco::crowd::Oracle {
 public:
  explicit MemoOracle(qoco::crowd::Oracle* inner) : inner_(inner) {}

  bool IsFactTrue(const qoco::relational::Fact& fact) override;
  bool IsAnswerTrue(const qoco::query::CQuery& q,
                    const qoco::relational::Tuple& t) override;
  bool IsAnswerTrue(const qoco::query::UnionQuery& q,
                    const qoco::relational::Tuple& t) override;
  std::optional<qoco::query::Assignment> Complete(
      const qoco::query::CQuery& q,
      const qoco::query::Assignment& partial) override;
  std::optional<qoco::relational::Tuple> MissingAnswer(
      const qoco::query::CQuery& q,
      const std::vector<qoco::relational::Tuple>& current) override;
  std::optional<qoco::relational::Tuple> MissingAnswer(
      const qoco::query::UnionQuery& q,
      const std::vector<qoco::relational::Tuple>& current) override;

 private:
  qoco::crowd::Answer Ask(const qoco::crowd::Question& q);

  qoco::crowd::Oracle* inner_;
  std::mutex mu_;
  std::unordered_map<std::string, qoco::crowd::Answer> answers_;  // by mu_
};

/// The service's crowd: answers each question at ask time from a pure,
/// thread-safe `inner` oracle and completes it through `clock` after a
/// fixed latency, so no thread is held per question in flight. Answering
/// runs on the asking worker; the CPU time it takes is simulation cost, so
/// the calling thread's share is kept in a thread-local counter that the
/// service runner subtracts from engine time.
class LatencyOracle : public qoco::crowd::AsyncOracle {
 public:
  LatencyOracle(qoco::crowd::Oracle* inner, qoco::service::Clock* clock,
                qoco::service::Tick latency_ticks)
      : inner_(inner), clock_(clock), latency_(latency_ticks) {}

  void Ask(const qoco::crowd::Question& q, Completion done) override;

  /// Questions answered so far, by kind: TRUE(R(a))?, TRUE(Q, t)? and the
  /// COMPL tasks.
  size_t fact_calls() const { return fact_calls_; }
  size_t answer_calls() const { return answer_calls_; }
  size_t open_calls() const { return open_calls_; }

  /// Simulation CPU time spent by the calling thread since its last Take.
  static int64_t TakeThreadCpuNs();

 private:
  qoco::crowd::Oracle* inner_;
  qoco::service::Clock* clock_;
  const qoco::service::Tick latency_;
  std::atomic<size_t> fact_calls_{0};
  std::atomic<size_t> answer_calls_{0};
  std::atomic<size_t> open_calls_{0};
};

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_CROWD_METER_H_
