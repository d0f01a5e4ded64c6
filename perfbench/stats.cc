#include "perfbench/stats.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>

namespace perfbench {

size_t MinSamplesFor(double pct) {
  // n * (1 - pct/100) >= 10; the slack absorbs the rounding error of
  // 1 - pct/100 (10 / (1 - 0.999) is 10000.000000002 in doubles).
  const double beyond = 1.0 - pct / 100.0;
  return static_cast<size_t>(std::ceil(10.0 / beyond - 1e-6));
}

std::optional<double> HighestPercentile(size_t n) {
  std::optional<double> best;
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    if (n >= MinSamplesFor(pct)) best = pct;
  }
  return best;
}

std::optional<double> Percentile(std::vector<double> samples, double pct) {
  if (samples.empty() || samples.size() < MinSamplesFor(pct)) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double PercentileOrNote(const std::vector<double>& samples, double pct,
                        const std::string& name,
                        std::vector<std::string>* notes) {
  if (std::optional<double> p = Percentile(samples, pct)) return *p;
  const std::optional<double> highest = HighestPercentile(samples.size());
  const std::string supported =
      highest ? "p" + FormatNumber(*highest) : std::string("none");
  notes->push_back(name + ": " + std::to_string(samples.size()) +
                   " samples, below the " + std::to_string(MinSamplesFor(pct)) +
                   " this percentile needs; the highest they support is " +
                   supported);
  if (samples.empty()) return 0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(std::floor(rank))];
}

double BlockPercentile(const Units& units, double pct, const std::string& name,
                       std::vector<std::string>* notes) {
  const size_t needed = MinSamplesFor(pct);
  std::vector<std::vector<double>> blocks;
  std::vector<double> open;
  for (const std::vector<double>& unit : units) {
    open.insert(open.end(), unit.begin(), unit.end());
    if (open.size() >= needed) {
      blocks.push_back(std::move(open));
      open.clear();
    }
  }
  if (blocks.empty()) return PercentileOrNote(open, pct, name, notes);
  blocks.back().insert(blocks.back().end(), open.begin(), open.end());
  std::vector<double> per_block;
  for (std::vector<double>& block : blocks) {
    per_block.push_back(*Percentile(std::move(block), pct));
  }
  return Median(std::move(per_block));
}

Units Singletons(const std::vector<double>& samples) {
  Units units;
  units.reserve(samples.size());
  for (double v : samples) units.push_back({v});
  return units;
}

std::vector<double> Flatten(const Units& units) {
  std::vector<double> all;
  for (const std::vector<double>& unit : units) {
    all.insert(all.end(), unit.begin(), unit.end());
  }
  return all;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : (samples[mid - 1] + samples[mid]) / 2.0;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::string FormatNumber(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
