#ifndef QOCO_PERFBENCH_STATS_H_
#define QOCO_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile needs: at least ten must lie beyond it, so p50
/// needs 20, p90 needs 100 and p99 needs 1000.
size_t MinSamplesFor(double pct);

/// The highest of p50, p90, p99 and p99.9 that `n` samples support, or
/// nullopt below 20 samples.
std::optional<double> HighestPercentile(size_t n);

/// The `pct` percentile of `samples` (linear interpolation between order
/// statistics), or nullopt when fewer than MinSamplesFor(pct) samples
/// exist: no tail figure is ever read off too few samples.
std::optional<double> Percentile(std::vector<double> samples, double pct);

/// Percentile(samples, pct), or, when too few samples support it, the
/// interpolated value anyway plus a note in `notes` naming the shortfall.
double PercentileOrNote(const std::vector<double>& samples, double pct,
                        const std::string& name,
                        std::vector<std::string>* notes);

/// Samples in the order they were taken, one unit per pass or cycle.
using Units = std::vector<std::vector<double>>;

/// Merges consecutive units into blocks of at least MinSamplesFor(pct)
/// samples (a short tail joins the last block), takes the `pct` percentile
/// of each block, and returns the median across blocks: a burst of host
/// noise during part of a run moves a few blocks, not the result. With
/// fewer samples than one block needs, PercentileOrNote over all of them.
double BlockPercentile(const Units& units, double pct, const std::string& name,
                       std::vector<std::string>* notes);

/// `samples` as units of one sample each, for samples with no pass
/// structure.
Units Singletons(const std::vector<double>& samples);

/// All samples of `units`, in order.
std::vector<double> Flatten(const Units& units);

/// Median of `samples` with no sample-count rule (for medians of a few
/// repeated set-ups or batches); 0 for an empty vector.
double Median(std::vector<double> samples);

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

/// CPU time consumed by the calling thread, in nanoseconds.
int64_t ThreadCpuNs();

/// CPU time consumed by every thread of this process, those that have
/// exited included, in nanoseconds.
int64_t ProcessCpuNs();

/// `v` in the shortest form that reads back as the same double.
std::string FormatNumber(double v);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace perfbench

#endif  // QOCO_PERFBENCH_STATS_H_
