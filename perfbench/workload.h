#ifndef QOCO_PERFBENCH_WORKLOAD_H_
#define QOCO_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/query/query.h"
#include "src/relational/database.h"
#include "src/relational/schema.h"
#include "src/workload/soccer.h"

namespace perfbench {

/// The seed of a workload's data: its dirty instances and its crowd's error
/// coins. Fixed, because drawing them from the run seed swung the per-run
/// question counts and the Q5 engine time by 25-60% between seeds, wider
/// than any bound a regression gate could use (README.md, "Seeds").
inline constexpr uint64_t kDataSeed = 20150531;

/// Everything that defines one workload. The data is fixed: the synthetic
/// soccer ground truth (the stand-in for the paper's scraped database) and
/// `instances` dirty copies of it drawn with kDataSeed. The run seed draws
/// the cleaning sessions' seeds and the order sessions run in.
struct WorkloadSpec {
  std::string name;
  qoco::workload::SoccerParams soccer;
  double skew = 0.5;
  double cleanliness = 0.8;
  /// Dirty databases; every pass cleans each view on each of them.
  size_t instances = 1;
  /// Soccer query indexes (1-based) cleaned on every instance.
  std::vector<size_t> views;

  /// Direct sessions: crowd panel size (1 = one perfect simulated oracle,
  /// 3 = stateless imperfect members voting) and the members' error rate.
  size_t panel_members = 1;
  double error_rate = 0;

  /// Service sessions (service-shared's main loop, and the service probe
  /// that ends the other workloads' traced runs). Sessions come in groups
  /// of `group_size` sharing a (view, dedup scope); each group cleans one
  /// view on one instance, each session with its own seed.
  bool service = false;
  size_t group_size = 1;
  double rate_per_s = 10;
};

/// The workload named `name`, or nullopt.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The generated inputs: what the benchmark hands to the program. Making
/// them is the benchmark's own work and is not timed.
struct Inputs {
  std::vector<qoco::relational::RelationSchema> schemas;
  std::string truth_csv;
  std::vector<std::string> dirty_csv;  // one per instance
  std::vector<std::string> view_texts;  // in WorkloadSpec::views order
  /// The order a pass (or a service cycle) visits the (instance, view)
  /// pairs, as indexes instance * views + view; drawn from the run seed.
  std::vector<size_t> order;
};
qoco::common::Result<Inputs> MakeInputs(const WorkloadSpec& spec,
                                        uint64_t seed);

/// The inputs loaded through the relational loaders into a fresh catalog.
struct Loaded {
  std::unique_ptr<qoco::relational::Catalog> catalog;
  std::unique_ptr<qoco::relational::Database> truth;
  std::vector<qoco::relational::Database> dirty;
  std::vector<std::string> view_texts;
  std::vector<qoco::query::CQuery> views;
  std::vector<size_t> order;
  double load_ms = 0;  // LoadDatabaseFromCsv of the truth and every instance
  size_t facts = 0;    // truth plus every instance
};
qoco::common::Result<Loaded> LoadInputs(const Inputs& inputs);

/// Q(DG) for every view: the answers a converged session must show.
std::vector<std::vector<qoco::relational::Tuple>> TruthAnswers(
    const Loaded& loaded);

/// Deterministic seed derivation: distinct streams per (seed, a, b, c).
uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0);

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_WORKLOAD_H_
