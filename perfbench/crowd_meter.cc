#include "perfbench/crowd_meter.h"

#include <utility>

#include "perfbench/stats.h"

namespace perfbench {

namespace {

const char* SpanName(CrowdMeter::Kind kind) {
  switch (kind) {
    case CrowdMeter::Kind::kFact:
      return "crowd.fact";
    case CrowdMeter::Kind::kAnswer:
      return "crowd.answer";
    case CrowdMeter::Kind::kComplete:
      return "crowd.complete";
    case CrowdMeter::Kind::kMissing:
      return "crowd.missing";
  }
  return "crowd.unknown";
}

thread_local int64_t thread_sim_cpu_ns = 0;

}  // namespace

void CrowdMeter::BeginSession(int64_t parent_span, uint64_t session) {
  parent_span_ = parent_span;
  session_ = session;
  session_wait_ns_ = 0;
  session_crowd_cpu_ns_ = 0;
  mark_cpu_ns_ = ProcessCpuNs();
}

void CrowdMeter::EndSession() {
  think_ms.push_back(NsToMs(ProcessCpuNs() - mark_cpu_ns_));
}

int64_t CrowdMeter::BeforeCall(Kind kind) {
  think_ms.push_back(NsToMs(ProcessCpuNs() - mark_cpu_ns_));
  switch (kind) {
    case Kind::kFact:
      fact_calls++;
      break;
    case Kind::kAnswer:
      answer_calls++;
      break;
    case Kind::kComplete:
    case Kind::kMissing:
      open_calls++;
      break;
  }
  const int64_t span = trace_->Open(SpanName(kind), parent_span_, session_);
  call_start_cpu_ns_ = ThreadCpuNs();
  call_start_ns_ = NowNs();
  return span;
}

void CrowdMeter::AfterCall(int64_t span) {
  const int64_t end = NowNs();
  session_crowd_cpu_ns_ += ThreadCpuNs() - call_start_cpu_ns_;
  trace_->Close(span);
  wait_ns += end - call_start_ns_;
  session_wait_ns_ += end - call_start_ns_;
  mark_cpu_ns_ = ProcessCpuNs();
}

namespace {

/// Brackets one forwarded crowd call.
template <typename Fn>
auto Metered(CrowdMeter* meter, CrowdMeter::Kind kind, Fn&& fn) {
  const int64_t span = meter->BeforeCall(kind);
  auto result = fn();
  meter->AfterCall(span);
  return result;
}

}  // namespace

bool TimedOracle::IsFactTrue(const qoco::relational::Fact& fact) {
  return Metered(meter_, CrowdMeter::Kind::kFact,
                 [&] { return inner_->IsFactTrue(fact); });
}

bool TimedOracle::IsAnswerTrue(const qoco::query::CQuery& q,
                               const qoco::relational::Tuple& t) {
  return Metered(meter_, CrowdMeter::Kind::kAnswer,
                 [&] { return inner_->IsAnswerTrue(q, t); });
}

bool TimedOracle::IsAnswerTrue(const qoco::query::UnionQuery& q,
                               const qoco::relational::Tuple& t) {
  return Metered(meter_, CrowdMeter::Kind::kAnswer,
                 [&] { return inner_->IsAnswerTrue(q, t); });
}

std::optional<qoco::query::Assignment> TimedOracle::Complete(
    const qoco::query::CQuery& q, const qoco::query::Assignment& partial) {
  return Metered(meter_, CrowdMeter::Kind::kComplete,
                 [&] { return inner_->Complete(q, partial); });
}

std::optional<qoco::relational::Tuple> TimedOracle::MissingAnswer(
    const qoco::query::CQuery& q,
    const std::vector<qoco::relational::Tuple>& current) {
  return Metered(meter_, CrowdMeter::Kind::kMissing,
                 [&] { return inner_->MissingAnswer(q, current); });
}

std::optional<qoco::relational::Tuple> TimedOracle::MissingAnswer(
    const qoco::query::UnionQuery& q,
    const std::vector<qoco::relational::Tuple>& current) {
  return Metered(meter_, CrowdMeter::Kind::kMissing,
                 [&] { return inner_->MissingAnswer(q, current); });
}

qoco::crowd::Answer MemoOracle::Ask(const qoco::crowd::Question& q) {
  std::string key = q.Signature();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = answers_.find(key);
  if (it == answers_.end()) {
    it = answers_
             .emplace(std::move(key), qoco::crowd::AskOracleBlocking(inner_, q))
             .first;
  }
  return it->second;
}

bool MemoOracle::IsFactTrue(const qoco::relational::Fact& fact) {
  return Ask(qoco::crowd::Question::FactTrue(fact)).yes;
}

bool MemoOracle::IsAnswerTrue(const qoco::query::CQuery& q,
                              const qoco::relational::Tuple& t) {
  return Ask(qoco::crowd::Question::AnswerTrue(q, t)).yes;
}

bool MemoOracle::IsAnswerTrue(const qoco::query::UnionQuery& q,
                              const qoco::relational::Tuple& t) {
  return Ask(qoco::crowd::Question::AnswerTrue(q, t)).yes;
}

std::optional<qoco::query::Assignment> MemoOracle::Complete(
    const qoco::query::CQuery& q, const qoco::query::Assignment& partial) {
  return Ask(qoco::crowd::Question::Complete(q, partial)).assignment;
}

std::optional<qoco::relational::Tuple> MemoOracle::MissingAnswer(
    const qoco::query::CQuery& q,
    const std::vector<qoco::relational::Tuple>& current) {
  return Ask(qoco::crowd::Question::MissingAnswer(q, current)).tuple;
}

std::optional<qoco::relational::Tuple> MemoOracle::MissingAnswer(
    const qoco::query::UnionQuery& q,
    const std::vector<qoco::relational::Tuple>& current) {
  return Ask(qoco::crowd::Question::MissingAnswer(q, current)).tuple;
}

void LatencyOracle::Ask(const qoco::crowd::Question& q, Completion done) {
  switch (q.kind) {
    case qoco::crowd::Question::Kind::kIsFactTrue:
      fact_calls_++;
      break;
    case qoco::crowd::Question::Kind::kIsAnswerTrue:
    case qoco::crowd::Question::Kind::kIsUnionAnswerTrue:
      answer_calls_++;
      break;
    default:
      open_calls_++;
      break;
  }
  const int64_t cpu0 = ThreadCpuNs();
  qoco::crowd::Answer answer = qoco::crowd::AskOracleBlocking(inner_, q);
  thread_sim_cpu_ns += ThreadCpuNs() - cpu0;
  clock_->RunAt(clock_->Now() + latency_,
                [done = std::move(done), answer = std::move(answer)]() mutable {
                  done(std::move(answer));
                });
}

int64_t LatencyOracle::TakeThreadCpuNs() {
  return std::exchange(thread_sim_cpu_ns, 0);
}

}  // namespace perfbench
