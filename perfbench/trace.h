#ifndef QOCO_PERFBENCH_TRACE_H_
#define QOCO_PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One recorded span. `parent` indexes the recorder's span list (-1 for a
/// root); spans of one session share `session` (0 when not tied to one).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t session = 0;
};

/// In-memory span recorder, safe to call from any thread. A disabled
/// recorder records nothing and returns -1 from Open, so untraced runs pay
/// one branch per call site.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled) : enabled_(enabled) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Starts a span now and returns its id (or -1 when disabled).
  int64_t Open(std::string name, int64_t parent, uint64_t session);

  /// Ends span `id` now. No-op for -1.
  void Close(int64_t id);

  /// Records a finished span with explicit bounds; returns its id.
  int64_t Record(Span span);

  std::vector<Span> Snapshot() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// `parent`'s duration minus the part of it covered by `children`
/// intervals; children may overlap each other and stick out of the parent.
int64_t SelfTimeNs(const Span& parent,
                   std::vector<std::pair<int64_t, int64_t>> children);

/// Per span name: how many spans, their total duration and total self time
/// (duration minus the part covered by direct children).
struct SpanSummary {
  std::string name;
  size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<SpanSummary> SummarizeSpans(const std::vector<Span>& spans);

/// Writes `spans` as a JSON array to `path`; false on an I/O error.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_TRACE_H_
