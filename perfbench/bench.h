#ifndef QOCO_PERFBENCH_BENCH_H_
#define QOCO_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  /// Per-layer mode: interleaves traced passes with untraced ones, then
  /// replays the layer calls and (for the session workloads) probes the
  /// service, reporting the per-layer metrics.
  bool trace = false;
  /// Set-ups per run; setup_s is their median.
  size_t setups = 5;
  /// Where the traced run writes its spans (empty: nowhere).
  std::string trace_out;
};

struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  /// End-to-end metrics without tracing, per-layer metrics with it.
  std::vector<Metric> metrics;
  /// Human-readable lines: failures, percentile shortfalls, run shape.
  std::vector<std::string> notes;
  std::vector<SpanSummary> spans;
};

/// Runs `spec` on inputs generated from options.seed.
RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_BENCH_H_
