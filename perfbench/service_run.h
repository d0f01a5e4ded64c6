#ifndef QOCO_PERFBENCH_SERVICE_RUN_H_
#define QOCO_PERFBENCH_SERVICE_RUN_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/crowd_meter.h"
#include "perfbench/session_run.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/common/thread_pool.h"
#include "src/crowd/simulated_oracle.h"
#include "src/service/clock.h"
#include "src/service/question_broker.h"
#include "src/service/session_manager.h"

namespace perfbench {

/// Worker threads for the service pool: the generator and the clock's
/// timer thread take one core each, and an inline pool (one thread) would
/// run every session inside Submit, so never fewer than two.
size_t ServiceWorkers();

/// What one open-loop service run measured.
struct ServiceOutcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  /// Per session: untraced cycles one unit each, traced cycles pooled.
  Units sojourn_ms, session_ms;
  std::vector<double> traced_sojourn_ms, traced_session_ms;
  /// Think gaps in the order they ended.
  std::vector<double> think_ms;
  std::vector<double> admit_ms, late_ms, ask_ms;
  /// Wall time sessions spent parked on the crowd, and questions that
  /// reached it by kind, per cycle.
  double crowd_wait_ms = 0;
  double fact_calls = 0;
  double answer_calls = 0;
  double open_calls = 0;
  size_t active_max = 0;
  size_t queued_max = 0;
  /// Exact per-cycle counts.
  double crowd_cost = 0;
  double member_answers = 0;
  double crowd_issues = 0;
  qoco::service::BrokerStats broker;
  size_t commit_bytes = 0;
  double rss_growth_mb = 0;
};

/// The session service under an open loop: one SessionManager per dirty
/// instance, sharing one pool, one RealtimeClock and one LatencyOracle
/// over a perfect simulated crowd that answers after 1 ms. Sessions come in groups of
/// `spec.group_size` sharing a (view, dedup scope); every cycle walks all
/// (instance, view) groups once with fresh scopes, so every cycle asks the
/// crowd the same number of fresh questions.
class ServiceBench {
 public:
  /// Builds the service (the set-up part). `loaded` must outlive it.
  ServiceBench(const WorkloadSpec& spec, const Loaded* loaded, uint64_t seed,
               TraceRecorder* trace);
  ServiceBench(const ServiceBench&) = delete;
  ServiceBench& operator=(const ServiceBench&) = delete;
  /// Clean shutdown: drains the clock and joins the pool before anything
  /// an observer or a pending completion captures is destroyed.
  ~ServiceBench();

  /// Solo serial runs of every distinct (instance, view, seed): the
  /// transcripts every service session must reproduce. Part of set-up.
  /// `traced` records their CleanView spans.
  qoco::common::Status ComputeReferences(bool traced);

  /// Submits `cycles` whole cycles on the open-loop schedule, waits for
  /// every finish observer, and checks each session against its reference.
  /// With `trace_odd_cycles`, odd cycles record spans.
  ServiceOutcome Run(size_t cycles, bool trace_odd_cycles);

  size_t sessions_per_cycle() const {
    return loaded_->dirty.size() * loaded_->views.size() * spec_.group_size;
  }
  /// CleanView wall times (crowd included) of the traced solo references.
  const std::vector<double>& reference_clean_view_ms() const {
    return reference_clean_view_ms_;
  }
  /// Edits of each (instance, view)'s first-seed reference.
  std::vector<std::vector<qoco::cleaning::EditList>> ReferenceEdits() const;

 private:
  struct Reference {
    std::string journal;
    std::string facts;
    std::string questions;
    qoco::cleaning::EditList edits;
  };
  struct Record {
    size_t manager = 0;
    qoco::service::SessionId id = 0;
    size_t reference = 0;
    int64_t due_ns = 0;
    int64_t admit_start_ns = 0;
    int64_t admit_end_ns = 0;
    int64_t finish_ns = 0;
    double engine_ms = 0;
    bool traced = false;
    bool submitted = false;
  };

  size_t ReferenceIndex(size_t instance, size_t view, size_t j) const;
  uint64_t SessionSeed(size_t instance, size_t view, size_t j) const;
  void OnFinish(size_t manager, qoco::service::SessionId id);
  void OnPark(int delta);

  const WorkloadSpec spec_;
  const Loaded* loaded_;
  const uint64_t seed_;
  TraceRecorder* trace_;

  /// One perfect crowd for the solo references and the service; the
  /// references' answers are remembered, so the service's crowd costs the
  /// workers almost nothing to simulate.
  qoco::crowd::SimulatedOracle truth_oracle_;
  MemoOracle crowd_;
  SessionRunner solo_;
  std::vector<Reference> references_;
  std::vector<double> reference_clean_view_ms_;

  qoco::service::RealtimeClock clock_;
  LatencyOracle latency_oracle_;
  qoco::common::ThreadPool pool_;
  std::vector<std::unique_ptr<qoco::service::QuestionBroker>> brokers_;
  std::vector<std::unique_ptr<qoco::service::SessionManager>> managers_;

  std::mutex mu_;
  std::condition_variable finished_cv_;
  std::vector<Record> records_;  // guarded by mu_
  /// (manager, session id) -> index into records_.
  std::map<std::pair<size_t, qoco::service::SessionId>, size_t> by_id_;
  size_t finished_ = 0;
  std::vector<double> think_ms_;  // guarded by mu_
  int64_t parked_ns_ = 0;         // guarded by mu_
};

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_SERVICE_RUN_H_
