// The benchmark's own tests: the percentile rule, self-time arithmetic,
// open-loop lateness accounting, and a smoke run of every workload with
// its correctness gates on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/open_loop.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

TEST(PercentileRule, SamplesNeededLeaveTenBeyond) {
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(99), 1000u);
  EXPECT_EQ(MinSamplesFor(99.9), 10000u);
}

TEST(PercentileRule, HighestPercentileFollowsTheSampleCount) {
  EXPECT_FALSE(HighestPercentile(19).has_value());
  EXPECT_EQ(HighestPercentile(20), 50.0);
  EXPECT_EQ(HighestPercentile(99), 50.0);
  EXPECT_EQ(HighestPercentile(100), 90.0);
  EXPECT_EQ(HighestPercentile(999), 90.0);
  EXPECT_EQ(HighestPercentile(1000), 99.0);
  EXPECT_EQ(HighestPercentile(10000), 99.9);
}

TEST(PercentileRule, NoP99FromFewerThanAThousandSamples) {
  std::vector<double> samples(999);
  for (size_t i = 0; i < samples.size(); ++i) samples[i] = double(i);
  EXPECT_FALSE(Percentile(samples, 99).has_value());
  EXPECT_TRUE(Percentile(samples, 90).has_value());
  samples.push_back(999);
  ASSERT_TRUE(Percentile(samples, 99).has_value());
  EXPECT_NEAR(*Percentile(samples, 99), 989.01, 1e-9);
  EXPECT_NEAR(*Percentile(samples, 50), 499.5, 1e-9);
}

TEST(PercentileRule, ShortfallIsReportedNotHidden) {
  std::vector<std::string> notes;
  const double v = PercentileOrNote({1, 2, 3}, 90, "x.p90", &notes);
  EXPECT_EQ(v, 2);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("x.p90"), std::string::npos);
}

Span At(int64_t start, int64_t end) { return Span{"s", start, end, -1, 0}; }

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(SelfTimeNs(At(0, 100), {}), 100);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(SelfTimeNs(At(0, 100), {{10, 20}, {50, 80}}), 60);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,30] and [20,40] cover [10,40]; [35,38] lies inside that.
  EXPECT_EQ(SelfTimeNs(At(0, 100), {{20, 40}, {10, 30}, {35, 38}}), 70);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(SelfTimeNs(At(0, 100), {{-50, 10}, {90, 150}, {200, 300}}), 80);
}

TEST(SelfTime, SummaryCountsOnlyDirectChildren) {
  // root [0,100] > child [10,60] > grandchild [20,50]; root's self time
  // excludes the child only, the child's excludes the grandchild.
  std::vector<Span> spans = {{"root", 0, 100, -1, 1},
                             {"child", 10, 60, 0, 1},
                             {"grandchild", 20, 50, 1, 1},
                             {"child", 55, 70, 0, 1}};
  std::vector<SpanSummary> summary = SummarizeSpans(spans);
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_EQ(summary[0].name, "child");
  EXPECT_EQ(summary[0].count, 2u);
  EXPECT_NEAR(summary[0].self_ms, (20 + 15) / 1e6, 1e-12);
  EXPECT_EQ(summary[2].name, "root");
  EXPECT_NEAR(summary[2].self_ms, 40 / 1e6, 1e-12);
}

TEST(SelfTime, DisabledRecorderRecordsNothing) {
  TraceRecorder trace(false);
  EXPECT_EQ(trace.Open("x", -1, 0), -1);
  trace.Close(-1);
  EXPECT_TRUE(trace.Snapshot().empty());
}

/// A scripted clock: sleeping jumps to the deadline, sending costs
/// `cost[i]` ticks.
TEST(OpenLoop, LatenessAgainstAScriptedSchedule) {
  int64_t clock = 0;
  const std::vector<int64_t> cost = {0, 25, 0, 0, 0, 3};
  std::vector<int64_t> sent_due;
  const std::vector<Arrival> arrivals = RunOpenLoop(
      0, 10, cost.size(), [&] { return clock; },
      [&](int64_t until) { clock = std::max(clock, until); },
      [&](size_t i, int64_t due) {
        sent_due.push_back(due);
        clock += cost[i];
      });
  ASSERT_EQ(arrivals.size(), 6u);
  // Due times never shift, whatever the generator's delays.
  EXPECT_EQ(sent_due, (std::vector<int64_t>{0, 10, 20, 30, 40, 50}));
  std::vector<int64_t> late;
  for (const Arrival& a : arrivals) late.push_back(LatenessNs(a));
  // Arrival 1 costs 25 ticks: arrival 2 goes out at 35 (15 late), arrival
  // 3 at 35 (5 late), then the generator is back on schedule.
  EXPECT_EQ(late, (std::vector<int64_t>{0, 0, 15, 5, 0, 0}));
  EXPECT_EQ(arrivals[2].sent_ns, 35);
}

TEST(OpenLoop, EarlyClockSleepsUntilDue) {
  int64_t clock = 0;
  std::vector<int64_t> sleeps;
  RunOpenLoop(
      100, 50, 3, [&] { return clock; },
      [&](int64_t until) {
        sleeps.push_back(until);
        clock = until;
      },
      [](size_t, int64_t) {});
  EXPECT_EQ(sleeps, (std::vector<int64_t>{100, 150, 200}));
}

TEST(Workloads, SeedsDeriveDistinctStreams) {
  EXPECT_NE(DeriveSeed(1, 1, 0), DeriveSeed(1, 1, 1));
  EXPECT_NE(DeriveSeed(1, 1, 0), DeriveSeed(2, 1, 0));
  EXPECT_EQ(DeriveSeed(3, 4, 5, 6), DeriveSeed(3, 4, 5, 6));
}

TEST(Workloads, TheSeedDrawsTheSessionOrderNotTheData) {
  const std::optional<WorkloadSpec> spec = FindWorkload("insert-panel");
  ASSERT_TRUE(spec.has_value());
  auto a = MakeInputs(*spec, 5);
  auto b = MakeInputs(*spec, 5);
  auto c = MakeInputs(*spec, 6);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->order, b->order);
  EXPECT_NE(a->order, c->order);
  EXPECT_EQ(a->dirty_csv, c->dirty_csv);
  std::vector<size_t> sorted = c->order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

/// Smoke mode: every workload, briefly, with every correctness gate on,
/// untraced and traced.
class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, RunsCorrectlyAndReportsEveryMetric) {
  const std::optional<WorkloadSpec> spec = FindWorkload(GetParam());
  ASSERT_TRUE(spec.has_value());
  for (bool trace : {false, true}) {
    RunOptions options;
    options.seed = 3;
    options.seconds = 0.2;
    options.setups = 1;
    options.trace = trace;
    const RunResult r = RunWorkload(*spec, options);
    for (const std::string& note : r.notes) {
      EXPECT_EQ(note.rfind("FAILED", 0), std::string::npos) << note;
    }
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.metrics.size(), trace ? 40u : 11u);
    if (trace) {
      EXPECT_FALSE(r.spans.empty());
    } else {
      for (const Metric& m : r.metrics) EXPECT_GT(m.value, 0) << m.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace perfbench
