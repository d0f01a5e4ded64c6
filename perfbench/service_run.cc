#include "perfbench/service_run.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "perfbench/open_loop.h"
#include "perfbench/stats.h"
#include "src/common/thread_pool.h"
#include "src/crowd/question_log.h"
#include "src/relational/csv.h"

namespace perfbench {

namespace {

/// How long the crowd takes to answer, in RealtimeClock ticks (1 ms).
constexpr qoco::service::Tick kCrowdLatencyTicks = 1000;

/// Per pool worker: where the current session's engine time and think gap
/// started. Sessions run serially on a worker and a parked or idle worker
/// burns no CPU, so the worker's CPU time between two finish observers,
/// less the crowd simulation it ran, is the engine time of the session that
/// just finished; likewise from a wake-up to the next park.
struct WorkerClock {
  int64_t last_cpu_ns = 0;  // thread CPU at the previous finish
  int64_t sim_cpu_ns = 0;   // crowd simulation CPU since then
  int64_t wake_cpu_ns = -1;  // thread CPU at the last wake-up
  int64_t park_start_ns = 0;
};
thread_local WorkerClock worker_clock;

/// A fresh dedup scope per (cycle, group).
std::string ScopeName(size_t cycle, size_t group) {
  char buf[48];
  const int n = std::snprintf(buf, sizeof(buf), "c%zu.g%zu", cycle, group);
  return std::string(buf, static_cast<size_t>(n));
}

}  // namespace

size_t ServiceWorkers() {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::max<size_t>(2, cores > 2 ? cores - 2 : 1);
}

ServiceBench::ServiceBench(const WorkloadSpec& spec, const Loaded* loaded,
                           uint64_t seed, TraceRecorder* trace)
    : spec_(spec),
      loaded_(loaded),
      seed_(seed),
      trace_(trace),
      truth_oracle_(loaded->truth.get()),
      crowd_(&truth_oracle_),
      solo_(loaded, {&crowd_}, 1, trace),
      latency_oracle_(&crowd_, &clock_, kCrowdLatencyTicks),
      pool_(ServiceWorkers()) {
  for (size_t m = 0; m < loaded->dirty.size(); ++m) {
    brokers_.push_back(std::make_unique<qoco::service::QuestionBroker>(
        &latency_oracle_, &clock_));
    brokers_.back()->SetParkObserver([this](int delta) { OnPark(delta); });
    managers_.push_back(std::make_unique<qoco::service::SessionManager>(
        &loaded->dirty[m], brokers_.back().get(), &pool_));
    managers_.back()->SetFinishObserver(
        [this, m](qoco::service::SessionId id) { OnFinish(m, id); });
  }
}

ServiceBench::~ServiceBench() {
  // Every session has finished (Run waits for each finish observer), so
  // the clock can only hold completions already fanned out; a sentinel
  // scheduled past the longest latency runs after all of them.
  qoco::common::Notification drained;
  clock_.RunAt(clock_.Now() + 2 * kCrowdLatencyTicks,
               [&drained] { drained.Notify(); });
  drained.WaitForNotification();
  pool_.Shutdown();
}

size_t ServiceBench::ReferenceIndex(size_t instance, size_t view,
                                    size_t j) const {
  return (instance * loaded_->views.size() + view) * spec_.group_size + j;
}

uint64_t ServiceBench::SessionSeed(size_t instance, size_t view,
                                   size_t j) const {
  return DeriveSeed(seed_, 2, instance * 64 + view, j);
}

qoco::common::Status ServiceBench::ComputeReferences(bool traced) {
  references_.clear();
  reference_clean_view_ms_.clear();
  for (size_t k = 0; k < loaded_->dirty.size(); ++k) {
    for (size_t v = 0; v < loaded_->views.size(); ++v) {
      for (size_t j = 0; j < spec_.group_size; ++j) {
        SessionOutcome out = solo_.Run(k, v, SessionSeed(k, v, j),
                                       references_.size() + 1, traced,
                                       /*keep_db=*/true);
        if (!out.ok) return qoco::common::Status::Internal(out.error);
        if (traced) reference_clean_view_ms_.push_back(out.clean_view_ms);
        references_.push_back({std::move(out.journal),
                               qoco::relational::DatabaseToCsv(*out.final_db),
                               qoco::crowd::ToString(out.questions),
                               std::move(out.edits)});
      }
    }
  }
  return qoco::common::Status::OK();
}

std::vector<std::vector<qoco::cleaning::EditList>>
ServiceBench::ReferenceEdits() const {
  std::vector<std::vector<qoco::cleaning::EditList>> edits(
      loaded_->dirty.size());
  for (size_t k = 0; k < loaded_->dirty.size(); ++k) {
    for (size_t v = 0; v < loaded_->views.size(); ++v) {
      edits[k].push_back(references_[ReferenceIndex(k, v, 0)].edits);
    }
  }
  return edits;
}

void ServiceBench::OnPark(int delta) {
  const int64_t now = NowNs();
  WorkerClock& wc = worker_clock;
  if (delta < 0) {
    wc.wake_cpu_ns = ThreadCpuNs();
    std::lock_guard<std::mutex> lk(mu_);
    parked_ns_ += now - wc.park_start_ns;
    return;
  }
  wc.park_start_ns = now;
  const int64_t cpu = ThreadCpuNs();
  const int64_t sim_cpu = LatencyOracle::TakeThreadCpuNs();
  wc.sim_cpu_ns += sim_cpu;
  if (wc.wake_cpu_ns < 0) return;  // first park: session start unknown
  const double gap = NsToMs(cpu - wc.wake_cpu_ns - sim_cpu);
  std::lock_guard<std::mutex> lk(mu_);
  think_ms_.push_back(gap);
}

void ServiceBench::OnFinish(size_t manager, qoco::service::SessionId id) {
  const int64_t now = NowNs();
  const int64_t cpu = ThreadCpuNs();
  WorkerClock& wc = worker_clock;
  const int64_t sim_cpu = LatencyOracle::TakeThreadCpuNs();
  const double engine_ms = NsToMs(cpu - wc.last_cpu_ns - wc.sim_cpu_ns -
                                  sim_cpu);
  const int64_t wake_cpu = wc.wake_cpu_ns;
  wc = WorkerClock{cpu, 0, -1, 0};

  std::lock_guard<std::mutex> lk(mu_);
  if (wake_cpu >= 0) think_ms_.push_back(NsToMs(cpu - wake_cpu - sim_cpu));
  auto it = by_id_.find({manager, id});
  if (it != by_id_.end()) {
    Record& rec = records_[it->second];
    rec.finish_ns = now;
    rec.engine_ms = engine_ms;
  }
  finished_++;
  finished_cv_.notify_all();
}

ServiceOutcome ServiceBench::Run(size_t cycles, bool trace_odd_cycles) {
  ServiceOutcome out;
  const size_t per_cycle = sessions_per_cycle();
  const size_t total = cycles * per_cycle;
  const size_t num_views = loaded_->views.size();
  const double rss_before = PeakRssMb();
  {
    std::lock_guard<std::mutex> lk(mu_);
    records_.assign(total, Record{});
    by_id_.clear();
    finished_ = 0;
    think_ms_.clear();
    parked_ns_ = 0;
  }
  const size_t facts_before = latency_oracle_.fact_calls();
  const size_t answers_before = latency_oracle_.answer_calls();
  const size_t opens_before = latency_oracle_.open_calls();
  std::vector<qoco::service::BrokerStats> broker_before;
  for (const auto& broker : brokers_) broker_before.push_back(broker->stats());
  std::vector<size_t> next_id(managers_.size(), 1);
  size_t submitted = 0;

  auto send = [&](size_t i, int64_t due) {
    const size_t cycle = i / per_cycle;
    const size_t s = i % per_cycle;
    const size_t group = loaded_->order[s / spec_.group_size];
    const size_t j = s % spec_.group_size;
    const size_t instance = group / num_views;
    const size_t view = group % num_views;
    const bool traced = trace_odd_cycles && cycle % 2 == 1;

    size_t active = 0;
    size_t queued = 0;
    for (const auto& manager : managers_) {
      active += manager->ActiveSessions();
      queued += manager->QueuedSessions();
    }
    out.active_max = std::max(out.active_max, active);
    out.queued_max = std::max(out.queued_max, queued);

    qoco::service::SessionSpec session;
    session.steps.push_back({qoco::service::SessionSpec::Step::Kind::kCleanView,
                             loaded_->view_texts[view]});
    session.seed = SessionSeed(instance, view, j);
    session.scope = ScopeName(cycle, group);
    // Ids are handed out in submission order from 1, so the record can be
    // keyed before Submit returns, when the session may already be done.
    const qoco::service::SessionId expected = next_id[instance];
    {
      std::lock_guard<std::mutex> lk(mu_);
      Record& rec = records_[i];
      rec.manager = instance;
      rec.id = expected;
      rec.reference = ReferenceIndex(instance, view, j);
      rec.due_ns = due;
      rec.traced = traced;
      by_id_[{instance, expected}] = i;
    }
    out.attempted++;
    const int64_t admit_start = NowNs();
    qoco::common::Result<qoco::service::SessionId> id =
        managers_[instance]->Submit(std::move(session));
    const int64_t admit_end = NowNs();
    out.admit_ms.push_back(NsToMs(admit_end - admit_start));
    std::lock_guard<std::mutex> lk(mu_);
    records_[i].admit_start_ns = admit_start;
    records_[i].admit_end_ns = admit_end;
    if (!id.ok() || id.value() != expected) {
      out.failed++;
      out.errors.push_back(id.ok() ? "session id out of order"
                                   : id.status().ToString());
      by_id_.erase({instance, expected});
      if (id.ok()) next_id[instance] = id.value() + 1;
      return;
    }
    next_id[instance]++;
    records_[i].submitted = true;
    submitted++;
  };

  const int64_t period = static_cast<int64_t>(1e9 / spec_.rate_per_s);
  const std::vector<Arrival> arrivals = RunOpenLoop(
      NowNs(), period, total, NowNs,
      [](int64_t until) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(until - NowNs()));
      },
      send);
  for (const Arrival& a : arrivals) {
    out.late_ms.push_back(NsToMs(LatenessNs(a)));
  }

  // WaitIdle can return before FinishAndDequeue has run the observer, so
  // completion is counted through the observer itself.
  {
    std::unique_lock<std::mutex> lk(mu_);
    finished_cv_.wait(lk, [&] { return finished_ >= submitted; });
  }
  out.rss_growth_mb = PeakRssMb() - rss_before;

  std::vector<qoco::crowd::QuestionCounts> cycle_counts(cycles);
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lk(mu_);
    records = records_;
    out.think_ms = think_ms_;
    out.crowd_wait_ms = NsToMs(parked_ns_) / static_cast<double>(cycles);
  }
  out.fact_calls = static_cast<double>(latency_oracle_.fact_calls() -
                                       facts_before) / cycles;
  out.answer_calls = static_cast<double>(latency_oracle_.answer_calls() -
                                         answers_before) / cycles;
  out.open_calls = static_cast<double>(latency_oracle_.open_calls() -
                                       opens_before) / cycles;
  out.sojourn_ms.resize(cycles);
  out.session_ms.resize(cycles);
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& rec = records[i];
    if (!rec.submitted) continue;
    if (rec.traced) {
      const uint64_t session = static_cast<uint64_t>(i) + 1;
      const int64_t span = trace_->Record(
          {"service.session", rec.due_ns, rec.finish_ns, -1, session});
      trace_->Record({"service.admit", rec.admit_start_ns, rec.admit_end_ns,
                      span, session});
    }
    const double sojourn = NsToMs(rec.finish_ns - rec.due_ns);
    const size_t cycle = i / per_cycle;
    (rec.traced ? out.traced_sojourn_ms : out.sojourn_ms[cycle])
        .push_back(sojourn);
    (rec.traced ? out.traced_session_ms : out.session_ms[cycle])
        .push_back(rec.engine_ms);
    qoco::common::Result<qoco::service::SessionResult> result =
        managers_[rec.manager]->Wait(rec.id);
    const Reference& ref = references_[rec.reference];
    std::string problem;
    if (!result.ok()) {
      problem = result.status().ToString();
    } else if (!result->status.ok()) {
      problem = result->status.ToString();
    } else if (result->journal != ref.journal) {
      problem = "journal differs from the solo run";
    } else if (result->final_facts_csv != ref.facts) {
      problem = "final facts differ from the solo run";
    } else if (qoco::crowd::ToString(result->questions) != ref.questions) {
      problem = "question counts differ from the solo run";
    }
    if (!problem.empty()) {
      out.failed++;
      out.errors.push_back("session " + std::to_string(i) + ": " + problem);
    }
    if (result.ok()) cycle_counts[i / per_cycle] += result->questions;
  }
  for (size_t c = 1; c < cycles; ++c) {
    if (cycle_counts[c].TotalCost() != cycle_counts[0].TotalCost()) {
      out.failed++;
      out.errors.push_back("crowd cost differs between cycles");
    }
  }
  if (cycles > 0) {
    out.crowd_cost = static_cast<double>(cycle_counts[0].TotalCost());
    out.member_answers = static_cast<double>(cycle_counts[0].member_answers);
  }

  size_t issues = 0;
  for (size_t m = 0; m < brokers_.size(); ++m) {
    const qoco::service::BrokerStats now = brokers_[m]->stats();
    const qoco::service::BrokerStats& was = broker_before[m];
    out.broker.asked += now.asked - was.asked;
    out.broker.cache_hits += now.cache_hits - was.cache_hits;
    out.broker.joined_inflight += now.joined_inflight - was.joined_inflight;
    out.broker.oracle_issues += now.oracle_issues - was.oracle_issues;
    out.broker.retries += now.retries - was.retries;
    out.broker.timeouts += now.timeouts - was.timeouts;
    out.broker.failed_questions += now.failed_questions - was.failed_questions;
    if (now.oracle_issues != brokers_[m]->DistinctQuestions()) {
      out.failed++;
      out.errors.push_back("broker issued a question twice");
    }
    issues += now.oracle_issues - was.oracle_issues;
    for (qoco::service::Tick t : brokers_[m]->LatencySamples()) {
      out.ask_ms.push_back(static_cast<double>(t) / 1000.0);
    }
    out.commit_bytes += managers_[m]->CommitJournalContents().size();
  }
  if (cycles > 0) {
    if (issues % cycles != 0) {
      out.failed++;
      out.errors.push_back("crowd issues differ between cycles");
    }
    out.crowd_issues = static_cast<double>(issues) / cycles;
  }
  return out;
}

}  // namespace perfbench
