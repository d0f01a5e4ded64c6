#ifndef QOCO_PERFBENCH_REPLAY_H_
#define QOCO_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/cleaning/edit.h"
#include "src/relational/tuple.h"

namespace perfbench {

/// What the layer replay runs on: a workload's loaded inputs, Q(DG) per
/// view, and the edits its sessions made per (instance, view).
struct ReplayInputs {
  const Loaded* loaded = nullptr;
  const std::vector<std::vector<qoco::relational::Tuple>>* truth_answers =
      nullptr;
  const std::vector<std::vector<qoco::cleaning::EditList>>* edits = nullptr;
  uint64_t seed = 0;
};

/// Calls each layer's public entry points on the workload's inputs, one
/// span per call, with each entry point's default arguments (so no thread
/// pool: one call is timed serially), and appends the query, hitting-set,
/// cleaning and provenance per-layer metrics to `out`.
void ReplayLayers(const ReplayInputs& in, TraceRecorder* trace,
                  std::vector<Metric>* out, std::vector<std::string>* notes);

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_REPLAY_H_
