#include "perfbench/bench.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "perfbench/crowd_meter.h"
#include "perfbench/replay.h"
#include "perfbench/service_run.h"
#include "perfbench/session_run.h"
#include "src/crowd/imperfect_oracle.h"
#include "src/crowd/question_log.h"
#include "src/crowd/simulated_oracle.h"
#include "src/query/evaluator.h"

namespace perfbench {

namespace {

using qoco::relational::Tuple;

/// A loop stops only after whole passes, and never before every reported
/// percentile has the samples it needs; the cap guards against a system so
/// slow that the samples never come.
constexpr size_t kMinPasses = 2;
constexpr double kMaxLoopFactor = 4;
constexpr size_t kProbeCycles = 2;

struct Reference {
  std::string journal;
  std::string questions;
  qoco::cleaning::EditList edits;
};

/// Everything a session workload (delete-scaled, insert-panel) builds
/// before its first timed session.
struct DirectState {
  Loaded loaded;
  std::vector<std::vector<Tuple>> truth_answers;
  std::vector<std::unique_ptr<qoco::crowd::Oracle>> crowd;
  std::vector<std::unique_ptr<MemoOracle>> memo;  // one per crowd member
  std::unique_ptr<SessionRunner> runner;
  std::vector<std::vector<Reference>> refs;  // [instance][view]
  /// The warm-up pass's exact counts, which every timed pass must repeat.
  size_t pass_cost = 0;
  size_t pass_member_answers = 0;
  size_t pass_fact_calls = 0;
  size_t pass_answer_calls = 0;
  size_t pass_open_calls = 0;
  /// Time inside the live crowd simulation during the warm-up pass.
  double warm_up_wait_ms = 0;
  size_t attempted = 0;
  std::vector<std::string> errors;
};

uint64_t DirectSessionSeed(uint64_t seed, size_t instance, size_t view) {
  return DeriveSeed(seed, 5, instance, view);
}

/// Set-up of a session workload: load the inputs, build the crowd and the
/// runner, and run the warm-up pass that produces the correctness
/// reference (with a perfect crowd, every view must converge to Q(DG)).
qoco::common::Result<std::unique_ptr<DirectState>> SetUpDirect(
    const WorkloadSpec& spec, const Inputs& inputs, uint64_t seed,
    TraceRecorder* trace) {
  auto st = std::make_unique<DirectState>();
  QOCO_ASSIGN_OR_RETURN(st->loaded, LoadInputs(inputs));
  st->truth_answers = TruthAnswers(st->loaded);
  std::vector<qoco::crowd::Oracle*> members;
  if (spec.panel_members == 1) {
    st->crowd.push_back(
        std::make_unique<qoco::crowd::SimulatedOracle>(st->loaded.truth.get()));
  } else {
    for (size_t m = 0; m < spec.panel_members; ++m) {
      st->crowd.push_back(std::make_unique<qoco::crowd::ImperfectOracle>(
          st->loaded.truth.get(), spec.error_rate, DeriveSeed(kDataSeed, 4, m),
          /*stateless=*/true));
    }
  }
  for (const auto& member : st->crowd) {
    st->memo.push_back(std::make_unique<MemoOracle>(member.get()));
    members.push_back(st->memo.back().get());
  }
  st->runner = std::make_unique<SessionRunner>(&st->loaded, members,
                                               spec.panel_members, trace);

  CrowdMeter& meter = st->runner->meter();
  const bool perfect = spec.panel_members == 1;
  const size_t num_views = st->loaded.views.size();
  st->refs.assign(st->loaded.dirty.size(), std::vector<Reference>(num_views));
  for (size_t pair : st->loaded.order) {
    const size_t k = pair / num_views;
    const size_t v = pair % num_views;
    SessionOutcome out = st->runner->Run(k, v, DirectSessionSeed(seed, k, v),
                                         0, /*traced=*/false, perfect);
    st->attempted++;
    if (!out.ok) {
      st->errors.push_back("warm-up session failed: " + out.error);
    } else if (perfect && qoco::query::Evaluator(&*out.final_db)
                                  .Evaluate(st->loaded.views[v])
                                  .AnswerTuples() != st->truth_answers[v]) {
      st->errors.push_back("view " + std::to_string(v) + " on instance " +
                           std::to_string(k) + " did not converge to Q(DG)");
    }
    st->pass_cost += out.questions.TotalCost();
    st->pass_member_answers += out.questions.member_answers;
    st->refs[k][v] = {std::move(out.journal),
                      qoco::crowd::ToString(out.questions),
                      std::move(out.edits)};
  }
  st->pass_fact_calls = meter.fact_calls;
  st->pass_answer_calls = meter.answer_calls;
  st->pass_open_calls = meter.open_calls;
  st->warm_up_wait_ms = NsToMs(meter.wait_ns);
  meter.think_ms.clear();
  return st;
}

/// Samples of a session workload's timed loop: untraced passes one unit
/// each, traced passes pooled.
struct DirectLoop {
  Units session_ms, sojourn_ms, think_ms;
  std::vector<double> traced_session_ms, traced_sojourn_ms;
  std::vector<double> traced_clean_view_ms;
  size_t sessions = 0;
  size_t think_gaps = 0;
  size_t passes = 0;
  size_t attempted = 0;
  std::vector<std::string> errors;
};

DirectLoop RunDirectLoop(const RunOptions& options, uint64_t seed,
                         DirectState* st) {
  DirectLoop loop;
  CrowdMeter& meter = st->runner->meter();
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(options.seconds * 1e9);
  uint64_t session_id = 0;
  while (true) {
    const int64_t pass_start = NowNs();
    const bool traced = options.trace && loop.passes % 2 == 1;
    const size_t facts = meter.fact_calls;
    const size_t answers = meter.answer_calls;
    const size_t opens = meter.open_calls;
    meter.think_ms.clear();
    std::vector<double> session_ms, sojourn_ms;
    size_t cost = 0;
    const size_t num_views = st->loaded.views.size();
    for (size_t pair : st->loaded.order) {
      const size_t k = pair / num_views;
      const size_t v = pair % num_views;
      SessionOutcome out = st->runner->Run(k, v, DirectSessionSeed(seed, k, v),
                                           ++session_id, traced, false);
      loop.attempted++;
      const Reference& ref = st->refs[k][v];
      if (!out.ok) {
        loop.errors.push_back("session failed: " + out.error);
      } else if (out.journal != ref.journal ||
                 qoco::crowd::ToString(out.questions) != ref.questions) {
        loop.errors.push_back("session " + std::to_string(session_id) +
                              " differs from its warm-up run");
      }
      cost += out.questions.TotalCost();
      (traced ? loop.traced_session_ms : session_ms).push_back(out.session_ms);
      (traced ? loop.traced_sojourn_ms : sojourn_ms).push_back(out.sojourn_ms);
      if (traced) loop.traced_clean_view_ms.push_back(out.clean_view_ms);
    }
    if (cost != st->pass_cost ||
        meter.fact_calls - facts != st->pass_fact_calls ||
        meter.answer_calls - answers != st->pass_answer_calls ||
        meter.open_calls - opens != st->pass_open_calls) {
      loop.errors.push_back("pass " + std::to_string(loop.passes) +
                            " asked the crowd differently from the warm-up");
    }
    if (!traced) {
      loop.session_ms.push_back(std::move(session_ms));
      loop.sojourn_ms.push_back(std::move(sojourn_ms));
      loop.think_ms.push_back(std::move(meter.think_ms));
      loop.sessions += loop.session_ms.back().size();
      loop.think_gaps += loop.think_ms.back().size();
    }
    loop.passes++;
    const int64_t now = NowNs();
    const bool enough = loop.sessions >= MinSamplesFor(90) &&
                        loop.think_gaps >= MinSamplesFor(99);
    if (now - start > kMaxLoopFactor * budget + 60e9) break;
    if (loop.passes >= kMinPasses && enough &&
        now - start + (now - pass_start) > budget) {
      break;
    }
  }
  return loop;
}

/// The end-to-end metrics, in the order BENCHMARK.json lists them.
void AddEndToEnd(double setup_s, const Units& session_ms, const Units& think_ms,
                 const Units& sojourn_ms, double crowd_cost,
                 double member_answers, double crowd_issues, RunResult* r) {
  auto& m = r->metrics;
  auto* notes = &r->notes;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"session_ms.p50",
               BlockPercentile(session_ms, 50, "session_ms.p50", notes), "ms"});
  m.push_back({"session_ms.p90",
               BlockPercentile(session_ms, 90, "session_ms.p90", notes), "ms"});
  m.push_back({"think_ms.p99",
               BlockPercentile(think_ms, 99, "think_ms.p99", notes), "ms"});
  m.push_back({"sojourn_ms.p50",
               BlockPercentile(sojourn_ms, 50, "sojourn_ms.p50", notes), "ms"});
  m.push_back({"sojourn_ms.p90",
               BlockPercentile(sojourn_ms, 90, "sojourn_ms.p90", notes), "ms"});
  m.push_back({"crowd_cost", crowd_cost, "questions"});
  m.push_back({"member_answers", member_answers, "answers"});
  m.push_back({"crowd_issues", crowd_issues, "questions"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  const double ok = r->attempted == 0
                        ? 0
                        : static_cast<double>(r->attempted - r->failed) /
                              static_cast<double>(r->attempted);
  m.push_back({"ok_share", ok, "ratio"});
}

void AddServiceLayer(const ServiceOutcome& o, RunResult* r) {
  auto& m = r->metrics;
  auto* notes = &r->notes;
  auto max_of = [](const std::vector<double>& v) {
    return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  };
  m.push_back({"service.admit_ms.p50",
               PercentileOrNote(o.admit_ms, 50, "service.admit_ms.p50", notes),
               "ms"});
  m.push_back({"service.admit_ms.max", max_of(o.admit_ms), "ms"});
  m.push_back({"service.late_ms.max", max_of(o.late_ms), "ms"});
  m.push_back({"service.ask_ms.p90",
               PercentileOrNote(o.ask_ms, 90, "service.ask_ms.p90", notes),
               "ms"});
  m.push_back({"service.ask_ms.p99",
               PercentileOrNote(o.ask_ms, 99, "service.ask_ms.p99", notes),
               "ms"});
  const auto& b = o.broker;
  m.push_back({"service.asked", static_cast<double>(b.asked), "count"});
  m.push_back({"service.cache_hits", static_cast<double>(b.cache_hits),
               "count"});
  m.push_back({"service.joined", static_cast<double>(b.joined_inflight),
               "count"});
  m.push_back({"service.issues", static_cast<double>(b.oracle_issues),
               "count"});
  m.push_back({"service.dedup_ratio",
               b.oracle_issues == 0 ? 0
                                    : static_cast<double>(b.asked) /
                                          static_cast<double>(b.oracle_issues),
               "ratio"});
  m.push_back({"service.retries", static_cast<double>(b.retries), "count"});
  m.push_back({"service.timeouts", static_cast<double>(b.timeouts), "count"});
  m.push_back({"service.failed_questions",
               static_cast<double>(b.failed_questions), "count"});
  m.push_back({"service.active_max", static_cast<double>(o.active_max),
               "count"});
  m.push_back({"service.queued_max", static_cast<double>(o.queued_max),
               "count"});
  m.push_back({"service.commit_bytes", static_cast<double>(o.commit_bytes),
               "bytes"});
  m.push_back({"service.rss_growth_mb", o.rss_growth_mb, "MB"});
}

void AddOverhead(const std::vector<double>& session_ms,
                 const std::vector<double>& traced_session_ms,
                 const std::vector<double>& sojourn_ms,
                 const std::vector<double>& traced_sojourn_ms, RunResult* r) {
  r->metrics.push_back({"trace.overhead_session_ms",
                        Median(traced_session_ms) - Median(session_ms), "ms"});
  r->metrics.push_back({"trace.overhead_sojourn_ms",
                        Median(traced_sojourn_ms) - Median(sojourn_ms), "ms"});
}

void AddFailures(size_t attempted, const std::vector<std::string>& errors,
                 RunResult* r) {
  r->attempted += attempted;
  r->failed += std::min(errors.size(), attempted);
  for (const std::string& e : errors) r->notes.push_back("FAILED " + e);
}

void FinishTrace(TraceRecorder* trace, const RunOptions& options,
                 RunResult* r) {
  const std::vector<Span> spans = trace->Snapshot();
  r->spans = SummarizeSpans(spans);
  if (!options.trace_out.empty() && !WriteSpansJson(spans, options.trace_out)) {
    r->notes.push_back("could not write " + options.trace_out);
  }
}

RunResult RunDirect(const WorkloadSpec& spec, const Inputs& inputs,
                    const RunOptions& options) {
  RunResult r;
  TraceRecorder trace(options.trace);
  std::unique_ptr<DirectState> st;
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  for (size_t i = 0; i < std::max<size_t>(1, options.setups); ++i) {
    st.reset();
    const int64_t start = NowNs();
    auto set_up = SetUpDirect(spec, inputs, options.seed, &trace);
    setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
    if (!set_up.ok()) {
      r.correct = false;
      r.attempted = r.failed = 1;
      r.notes.push_back("FAILED set-up: " + set_up.status().ToString());
      return r;
    }
    st = std::move(set_up).value();
    load_ms.push_back(st->loaded.load_ms);
  }
  AddFailures(st->attempted, st->errors, &r);

  DirectLoop loop = RunDirectLoop(options, options.seed, st.get());
  AddFailures(loop.attempted, loop.errors, &r);
  r.notes.push_back("passes=" + std::to_string(loop.passes) + " sessions=" +
                    std::to_string(loop.attempted) + " untraced_think_gaps=" +
                    std::to_string(loop.think_gaps));

  if (!options.trace) {
    AddEndToEnd(Median(setup_s), loop.session_ms, loop.think_ms,
                loop.sojourn_ms, static_cast<double>(st->pass_cost),
                static_cast<double>(st->pass_member_answers),
                static_cast<double>(st->pass_fact_calls +
                                    st->pass_answer_calls +
                                    st->pass_open_calls),
                &r);
    r.correct = r.failed == 0;
    return r;
  }

  r.metrics.push_back({"relational.load_ms", Median(load_ms), "ms"});
  r.metrics.push_back(
      {"relational.facts", static_cast<double>(st->loaded.facts), "count"});
  std::vector<std::vector<qoco::cleaning::EditList>> edits(st->refs.size());
  for (size_t k = 0; k < st->refs.size(); ++k) {
    for (const Reference& ref : st->refs[k]) edits[k].push_back(ref.edits);
  }
  ReplayLayers({&st->loaded, &st->truth_answers, &edits, options.seed},
               &trace, &r.metrics, &r.notes);
  r.metrics.push_back({"crowd.fact_calls",
                       static_cast<double>(st->pass_fact_calls), "count"});
  r.metrics.push_back({"crowd.answer_calls",
                       static_cast<double>(st->pass_answer_calls), "count"});
  r.metrics.push_back({"crowd.open_calls",
                       static_cast<double>(st->pass_open_calls), "count"});
  r.metrics.push_back({"crowd.wait_ms", st->warm_up_wait_ms, "ms"});
  r.metrics.push_back({"qoco.clean_view_ms.p50",
                       PercentileOrNote(loop.traced_clean_view_ms, 50,
                                        "qoco.clean_view_ms.p50", &r.notes),
                       "ms"});

  // The service layer on this workload's data: each session through a
  // SessionManager, once per cycle, at the workload's probe rate; two
  // cycles give the ask-latency tail its thousand samples.
  WorkloadSpec probe = spec;
  probe.group_size = 1;
  ServiceBench service(probe, &st->loaded, options.seed, &trace);
  if (qoco::common::Status s = service.ComputeReferences(false); !s.ok()) {
    AddFailures(1, {"service probe reference: " + s.ToString()}, &r);
  }
  const ServiceOutcome probed = service.Run(kProbeCycles, true);
  AddFailures(probed.attempted, probed.errors, &r);
  AddServiceLayer(probed, &r);
  AddOverhead(Flatten(loop.session_ms), loop.traced_session_ms,
              Flatten(loop.sojourn_ms), loop.traced_sojourn_ms, &r);
  FinishTrace(&trace, options, &r);
  r.correct = r.failed == 0;
  return r;
}

/// Everything the service workload builds before its first arrival.
struct ServiceState {
  Loaded loaded;
  std::unique_ptr<ServiceBench> bench;  // declared last: destroyed first
};

RunResult RunService(const WorkloadSpec& spec, const Inputs& inputs,
                     const RunOptions& options) {
  RunResult r;
  TraceRecorder trace(options.trace);
  std::unique_ptr<ServiceState> st;
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  const size_t setups = std::max<size_t>(1, options.setups);
  for (size_t i = 0; i < setups; ++i) {
    st.reset();
    const int64_t start = NowNs();
    auto loaded = LoadInputs(inputs);
    qoco::common::Status status = loaded.status();
    if (status.ok()) {
      st = std::make_unique<ServiceState>();
      st->loaded = std::move(loaded).value();
      st->bench = std::make_unique<ServiceBench>(spec, &st->loaded,
                                                 options.seed, &trace);
      status = st->bench->ComputeReferences(options.trace && i + 1 == setups);
    }
    setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
    if (!status.ok()) {
      r.correct = false;
      r.attempted = r.failed = 1;
      r.notes.push_back("FAILED set-up: " + status.ToString());
      return r;
    }
    load_ms.push_back(st->loaded.load_ms);
  }

  const size_t per_cycle = st->bench->sessions_per_cycle();
  size_t cycles = static_cast<size_t>(options.seconds * spec.rate_per_s /
                                      static_cast<double>(per_cycle));
  cycles = std::max<size_t>(cycles, 2);
  // Enough sessions for every percentile reported from them.
  while (cycles * per_cycle < MinSamplesFor(90)) cycles++;
  if (options.trace) cycles = std::max<size_t>(4, cycles + cycles % 2);
  const ServiceOutcome out = st->bench->Run(cycles, options.trace);
  AddFailures(out.attempted, out.errors, &r);
  r.notes.push_back("cycles=" + std::to_string(cycles) + " sessions=" +
                    std::to_string(out.attempted) + " workers=" +
                    std::to_string(ServiceWorkers()));

  if (!options.trace) {
    AddEndToEnd(Median(setup_s), out.session_ms, Singletons(out.think_ms),
                out.sojourn_ms, out.crowd_cost, out.member_answers,
                out.crowd_issues, &r);
    r.correct = r.failed == 0;
    return r;
  }

  r.metrics.push_back({"relational.load_ms", Median(load_ms), "ms"});
  r.metrics.push_back(
      {"relational.facts", static_cast<double>(st->loaded.facts), "count"});
  const auto truth_answers = TruthAnswers(st->loaded);
  const auto edits = st->bench->ReferenceEdits();
  ReplayLayers({&st->loaded, &truth_answers, &edits, options.seed}, &trace,
               &r.metrics, &r.notes);
  r.metrics.push_back({"crowd.fact_calls", out.fact_calls, "count"});
  r.metrics.push_back({"crowd.answer_calls", out.answer_calls, "count"});
  r.metrics.push_back({"crowd.open_calls", out.open_calls, "count"});
  r.metrics.push_back({"crowd.wait_ms", out.crowd_wait_ms, "ms"});
  r.metrics.push_back(
      {"qoco.clean_view_ms.p50",
       PercentileOrNote(st->bench->reference_clean_view_ms(), 50,
                        "qoco.clean_view_ms.p50", &r.notes),
       "ms"});
  AddServiceLayer(out, &r);
  AddOverhead(Flatten(out.session_ms), out.traced_session_ms,
              Flatten(out.sojourn_ms), out.traced_sojourn_ms, &r);
  FinishTrace(&trace, options, &r);
  r.correct = r.failed == 0;
  return r;
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  qoco::common::Result<Inputs> inputs = MakeInputs(spec, options.seed);
  if (!inputs.ok()) {
    RunResult r;
    r.correct = false;
    r.attempted = r.failed = 1;
    r.notes.push_back("FAILED input generation: " +
                      inputs.status().ToString());
    return r;
  }
  return spec.service ? RunService(spec, *inputs, options)
                      : RunDirect(spec, *inputs, options);
}

}  // namespace perfbench
