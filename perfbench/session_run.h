#ifndef QOCO_PERFBENCH_SESSION_RUN_H_
#define QOCO_PERFBENCH_SESSION_RUN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/crowd_meter.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/cleaning/edit.h"
#include "src/crowd/question_log.h"
#include "src/relational/database.h"

namespace perfbench {

/// What one direct cleaning session left behind.
struct SessionOutcome {
  bool ok = false;
  std::string error;
  /// Engine time: the process's CPU time during CleanView minus the CPU
  /// time inside crowd calls.
  double session_ms = 0;
  /// From the session being due to its end, in CPU time and less the
  /// crowd's: admission (copying the database, building the Session) plus
  /// engine time.
  double sojourn_ms = 0;
  /// CleanView wall time, crowd time included.
  double clean_view_ms = 0;
  std::string journal;
  qoco::crowd::QuestionCounts questions;
  qoco::cleaning::EditList edits;
  /// The cleaned database, when the caller asked to keep it.
  std::optional<qoco::relational::Database> final_db;
};

/// Runs one fresh qoco::Session per (instance, view) over a copy of the
/// instance's dirty database, with the default Session::Options except the
/// session seed and the panel's sample size. Every crowd call goes through
/// a TimedOracle, so engine time excludes the simulated crowd. Sessions
/// must run one at a time: engine time is the whole process's CPU time.
class SessionRunner {
 public:
  /// `members` are the crowd (not owned; must outlive the runner).
  SessionRunner(const Loaded* loaded,
                const std::vector<qoco::crowd::Oracle*>& members,
                size_t sample_size, TraceRecorder* trace);
  SessionRunner(const SessionRunner&) = delete;
  SessionRunner& operator=(const SessionRunner&) = delete;

  /// Cleans view `view` on instance `instance`. With `traced` the session
  /// becomes a `qoco.clean_view` span with one child per crowd call.
  SessionOutcome Run(size_t instance, size_t view, uint64_t session_seed,
                     uint64_t session_id, bool traced, bool keep_db);

  CrowdMeter& meter() { return meter_; }

 private:
  const Loaded* loaded_;
  TraceRecorder* trace_;
  TraceRecorder untraced_{false};
  CrowdMeter meter_;
  std::vector<std::unique_ptr<TimedOracle>> timed_;
  std::vector<qoco::crowd::Oracle*> members_;
  size_t sample_size_;
};

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_SESSION_RUN_H_
