#include "perfbench/session_run.h"

#include <utility>

#include "perfbench/stats.h"
#include "src/qoco/session.h"

namespace perfbench {

SessionRunner::SessionRunner(const Loaded* loaded,
                             const std::vector<qoco::crowd::Oracle*>& members,
                             size_t sample_size, TraceRecorder* trace)
    : loaded_(loaded),
      trace_(trace),
      meter_(&untraced_),
      sample_size_(sample_size) {
  for (qoco::crowd::Oracle* member : members) {
    timed_.push_back(std::make_unique<TimedOracle>(member, &meter_));
    members_.push_back(timed_.back().get());
  }
}

SessionOutcome SessionRunner::Run(size_t instance, size_t view,
                                  uint64_t session_seed, uint64_t session_id,
                                  bool traced, bool keep_db) {
  TraceRecorder* trace = traced ? trace_ : &untraced_;
  meter_.set_trace(trace);
  SessionOutcome out;
  const int64_t due_cpu = ProcessCpuNs();
  qoco::relational::Database db = loaded_->dirty[instance];
  qoco::Session::Options options;
  options.seed = session_seed;
  options.panel.sample_size = sample_size_;
  qoco::Session session(&db, members_, options);

  const int64_t span = trace->Open("qoco.clean_view", -1, session_id);
  meter_.BeginSession(span, session_id);
  const int64_t start = NowNs();
  const int64_t start_cpu = ProcessCpuNs();
  qoco::common::Result<qoco::cleaning::CleanerStats> stats =
      session.CleanView(loaded_->views[view]);
  const int64_t end_cpu = ProcessCpuNs();
  const int64_t end = NowNs();
  meter_.EndSession();
  trace->Close(span);

  const int64_t crowd_cpu = meter_.session_crowd_cpu_ns();
  out.session_ms = NsToMs(end_cpu - start_cpu - crowd_cpu);
  out.sojourn_ms = NsToMs(end_cpu - due_cpu - crowd_cpu);
  out.clean_view_ms = NsToMs(end - start);
  out.ok = stats.ok();
  if (!stats.ok()) {
    out.error = stats.status().ToString();
    return out;
  }
  out.journal = session.journal().contents();
  out.questions = session.questions();
  out.edits = std::move(stats).value().edits;
  if (keep_db) out.final_db = std::move(db);
  return out;
}

}  // namespace perfbench
