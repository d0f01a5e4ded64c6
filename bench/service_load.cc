// Closed-loop load generator for the session service (src/service/),
// emitting BENCH_service.json (consumed by EXPERIMENTS.md §Session
// service).
//
// kNumSessions cleaning sessions over the Figure-1 sample are submitted to
// a SessionManager whose oracle charges a simulated crowd latency per
// question, swept across manager pool widths. Sessions overlap heavily
// (shared queries, a few distinct seeds), so the QuestionBroker's
// cross-session dedup is the dominant effect: most asks join an in-flight
// question or hit the answer cache instead of paying the crowd round-trip.
//
// Reported per thread count: wall clock, sessions/sec, p50/p99 ask→answer
// latency (broker samples; cache hits count as 0), and the dedup savings
// ratio asked / oracle_issues. The run fails (exit 1) if dedup savings
// drop below 2x or if any session's transcript (edit journal, final facts,
// question counts) diverges from a solo serial run of the same spec — the
// measured numbers are only meaningful while the determinism contract
// holds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/crowd/async_oracle.h"
#include "src/crowd/question_log.h"
#include "src/crowd/simulated_oracle.h"
#include "src/qoco/session.h"
#include "src/service/clock.h"
#include "src/service/question_broker.h"
#include "src/service/session_manager.h"
#include "src/workload/figure_one.h"

namespace {

using namespace qoco;  // NOLINT(build/namespaces): benchmark driver.

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kNumSessions = 16;
constexpr size_t kDispatchWidth = 8;  // questions in flight at the "crowd"

constexpr char kQ1[] =
    "(x) :- Games(d1, x, y, 'Final', u1), Games(d2, x, z, 'Final', u2), "
    "Teams(x, 'EU'), d1 != d2.";
constexpr char kQ2[] =
    "(x) :- Players(x, y, z, w), Goals(x, d), "
    "Games(d, y, v, 'Final', u), Teams(y, 'EU').";

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Charges a fixed latency per question, modelling the crowd round-trip
/// the paper identifies as the dominant cost (Section 7). SimulatedOracle
/// only reads the ground truth, so concurrent charged calls are safe.
class LatencyOracle : public crowd::Oracle {
 public:
  LatencyOracle(crowd::Oracle* inner, double latency_ms)
      : inner_(inner), latency_(latency_ms) {}

  bool IsFactTrue(const relational::Fact& fact) override {
    Charge();
    return inner_->IsFactTrue(fact);
  }
  bool IsAnswerTrue(const query::CQuery& q,
                    const relational::Tuple& t) override {
    Charge();
    return inner_->IsAnswerTrue(q, t);
  }
  bool IsAnswerTrue(const query::UnionQuery& q,
                    const relational::Tuple& t) override {
    Charge();
    return inner_->IsAnswerTrue(q, t);
  }
  std::optional<query::Assignment> Complete(
      const query::CQuery& q, const query::Assignment& partial) override {
    Charge();
    return inner_->Complete(q, partial);
  }
  std::optional<relational::Tuple> MissingAnswer(
      const query::CQuery& q,
      const std::vector<relational::Tuple>& current) override {
    Charge();
    return inner_->MissingAnswer(q, current);
  }
  std::optional<relational::Tuple> MissingAnswer(
      const query::UnionQuery& q,
      const std::vector<relational::Tuple>& current) override {
    Charge();
    return inner_->MissingAnswer(q, current);
  }

 private:
  void Charge() {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(latency_));
  }

  crowd::Oracle* inner_;
  double latency_;
};

/// The load mix: every session cleans Q1, odd sessions also clean Q2, and
/// four distinct seeds split the sessions into groups that replay
/// identical question sequences — the overlap the broker collapses.
std::vector<service::SessionSpec> MakeSpecs() {
  std::vector<service::SessionSpec> specs;
  for (size_t i = 0; i < kNumSessions; ++i) {
    service::SessionSpec spec;
    spec.steps.push_back({service::SessionSpec::Step::Kind::kCleanView, kQ1});
    if (i % 2 == 1) {
      spec.steps.push_back(
          {service::SessionSpec::Step::Kind::kCleanView, kQ2});
    }
    spec.seed = 100 + (i % 4);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// What a session leaves behind, reduced to the comparable parts.
struct Transcript {
  std::string journal;
  std::string facts;
  std::string questions;

  bool operator==(const Transcript& o) const {
    return journal == o.journal && facts == o.facts && questions == o.questions;
  }
};

/// Solo serial reference: a plain qoco::Session over a private copy of the
/// dirty database, no service layer, no latency. The broker shares answers
/// from a pure oracle, so every concurrent run must reproduce this.
Transcript RunDirect(const workload::FigureOneSample& s,
                     const service::SessionSpec& spec) {
  relational::Database db = *s.dirty;
  crowd::SimulatedOracle sim(s.ground_truth.get());
  Session::Options options;
  options.panel.sample_size = 1;
  options.seed = spec.seed;
  Session session(&db, {&sim}, options);
  for (const service::SessionSpec::Step& step : spec.steps) {
    auto stats = session.CleanView(step.query_text);
    if (!stats.ok()) {
      std::fprintf(stderr, "reference session failed: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
  }
  return {session.journal().contents(), session.FinalFactsCsv(),
          crowd::ToString(session.questions())};
}

struct ConfigResult {
  size_t threads = 0;
  double wall_ms = 0;
  double sessions_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t asked = 0;
  size_t oracle_issues = 0;
  double dedup_savings = 0;
};

double PercentileMs(std::vector<service::Tick> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(pct / 100.0 * samples.size());
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx] / 1000.0;  // RealtimeClock ticks are microseconds
}

/// One full service run at `threads` manager workers: submit every spec,
/// wait, verify each transcript against its solo reference, and collect
/// the broker's accounting.
ConfigResult RunConfig(const workload::FigureOneSample& s,
                       const std::vector<service::SessionSpec>& specs,
                       const std::vector<Transcript>& reference,
                       size_t threads, double latency_ms) {
  crowd::SimulatedOracle sim(s.ground_truth.get());
  LatencyOracle slow(&sim, latency_ms);
  common::ThreadPool dispatch(kDispatchWidth);
  crowd::BlockingOracleAdapter async(&slow, &dispatch);
  service::RealtimeClock clock;
  service::QuestionBroker broker(&async, &clock);
  common::ThreadPool pool(threads);
  service::SessionManager manager(s.dirty.get(), &broker, &pool);

  auto start = std::chrono::steady_clock::now();
  std::vector<service::SessionId> ids;
  for (const service::SessionSpec& spec : specs) {
    auto id = manager.Submit(spec);
    if (!id.ok()) {
      std::fprintf(stderr, "Submit failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
    ids.push_back(id.value());
  }
  std::vector<service::SessionResult> results;
  for (service::SessionId id : ids) {
    auto r = manager.Wait(id);
    if (!r.ok() || !r.value().status.ok()) {
      std::fprintf(stderr, "session %llu failed (threads=%zu)\n",
                   static_cast<unsigned long long>(id), threads);
      std::exit(1);
    }
    results.push_back(std::move(r).value());
  }
  const double wall_ms = MsSince(start);

  for (size_t i = 0; i < results.size(); ++i) {
    Transcript got{results[i].journal, results[i].final_facts_csv,
                   crowd::ToString(results[i].questions)};
    if (!(got == reference[i])) {
      std::fprintf(stderr,
                   "determinism violation: session %zu diverges from its "
                   "solo run at threads=%zu\n",
                   i, threads);
      std::exit(1);
    }
  }

  const service::BrokerStats stats = broker.stats();
  ConfigResult r;
  r.threads = threads;
  r.wall_ms = wall_ms;
  r.sessions_per_sec = kNumSessions / (wall_ms / 1000.0);
  r.p50_ms = PercentileMs(broker.LatencySamples(), 50.0);
  r.p99_ms = PercentileMs(broker.LatencySamples(), 99.0);
  r.asked = stats.asked;
  r.oracle_issues = stats.oracle_issues;
  r.dedup_savings =
      stats.oracle_issues == 0
          ? 0
          : static_cast<double>(stats.asked) / stats.oracle_issues;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  // Smoke mode (the bench-smoke ctest label) shrinks the charged latency so
  // the pass stays cheap; the dedup and determinism assertions still run.
  const double latency_ms = smoke ? 0.2 : 2.0;

  auto sample = std::move(workload::MakeFigureOneSample()).value();
  const std::vector<service::SessionSpec> specs = MakeSpecs();

  std::printf("service load (sessions=%zu, oracle_latency=%.1fms, "
              "hardware_concurrency=%u)\n",
              kNumSessions, latency_ms, std::thread::hardware_concurrency());

  std::vector<Transcript> reference;
  for (const service::SessionSpec& spec : specs) {
    reference.push_back(RunDirect(sample, spec));
  }

  std::vector<ConfigResult> configs;
  for (size_t threads : kThreadCounts) {
    ConfigResult r = RunConfig(sample, specs, reference, threads, latency_ms);
    std::printf("  threads=%zu  %8.2f ms  %7.1f sessions/s  p50 %.2f ms  "
                "p99 %.2f ms  dedup %.2fx (%zu asks -> %zu issues)\n",
                r.threads, r.wall_ms, r.sessions_per_sec, r.p50_ms, r.p99_ms,
                r.dedup_savings, r.asked, r.oracle_issues);
    if (r.dedup_savings < 2.0) {
      std::fprintf(stderr,
                   "dedup savings %.2fx below the 2x floor at threads=%zu\n",
                   r.dedup_savings, threads);
      return 1;
    }
    configs.push_back(r);
  }

  std::string json = "{\n  \"context\": {\n";
  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    \"note\": \"closed-loop session-service load: %zu overlapping "
        "cleaning sessions over the Figure-1 sample, %.1fms simulated crowd "
        "latency per issued question; transcripts verified byte-identical "
        "to solo serial runs at every thread count\",\n"
        "    \"hardware_concurrency\": %u,\n"
        "    \"sessions\": %zu,\n"
        "    \"oracle_latency_ms\": %.1f,\n"
        "    \"dispatch_width\": %zu\n  },\n",
        kNumSessions, latency_ms, std::thread::hardware_concurrency(),
        kNumSessions, latency_ms, kDispatchWidth);
    json += buf;
  }
  json += "  \"configs\": [\n";
  for (size_t i = 0; i < configs.size(); ++i) {
    const ConfigResult& r = configs[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %zu, \"wall_ms\": %.3f, "
                  "\"sessions_per_sec\": %.2f, \"p50_question_ms\": %.3f, "
                  "\"p99_question_ms\": %.3f, \"asked\": %zu, "
                  "\"oracle_issues\": %zu, \"dedup_savings\": %.3f}%s\n",
                  r.threads, r.wall_ms, r.sessions_per_sec, r.p50_ms,
                  r.p99_ms, r.asked, r.oracle_issues, r.dedup_savings,
                  i + 1 < configs.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
