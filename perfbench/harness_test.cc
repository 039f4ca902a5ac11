#include "perfbench/harness.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace lapis::perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestReportablePercentile(0), 0.0);
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
  EXPECT_EQ(HighestReportablePercentile(20), 50.0);
  EXPECT_EQ(HighestReportablePercentile(99), 50.0);
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(999), 90.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(9999), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
  EXPECT_EQ(HighestReportablePercentile(1000000), 99.9);
}

TEST(PercentileRule, ReportedPercentileLeavesTenBeyond) {
  for (size_t n : {20u, 57u, 100u, 731u, 1000u, 4321u, 10000u}) {
    double pct = HighestReportablePercentile(n);
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    double at = Percentile(values, pct);
    size_t beyond = 0;
    for (double v : values) {
      beyond += v > at ? 1 : 0;
    }
    EXPECT_GE(beyond, 10u) << n;
  }
}

TEST(Percentile, NearestRank) {
  std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(Median(values), 3.0);
  EXPECT_EQ(Percentile(values, 100.0), 5.0);
  EXPECT_EQ(Percentile(values, 20.0), 1.0);
  EXPECT_EQ(Percentile(values, 21.0), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  EXPECT_EQ(Percentile(hundred, 99.0), 99.0);
  EXPECT_EQ(Median(hundred), 50.0);
}

ScheduleOptions TestSchedule() {
  ScheduleOptions options;
  options.rate_per_s = 3000.0;
  options.seconds = 4.0;
  options.connections = 2;
  options.class_mix = {0.7, 0.2, 0.1};
  options.pool_sizes = {256, 8, 8};
  return options;
}

bool SameSchedule(const std::vector<Arrival>& a,
                  const std::vector<Arrival>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_s != b[i].due_s || a[i].connection != b[i].connection ||
        a[i].frame_class != b[i].frame_class ||
        a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

TEST(ArrivalSchedule, SameSeedSameSchedule) {
  EXPECT_TRUE(SameSchedule(PoissonSchedule(42, TestSchedule()),
                           PoissonSchedule(42, TestSchedule())));
  EXPECT_FALSE(SameSchedule(PoissonSchedule(42, TestSchedule()),
                            PoissonSchedule(43, TestSchedule())));
}

TEST(ArrivalSchedule, MatchesRateMixAndBounds) {
  const ScheduleOptions options = TestSchedule();
  auto arrivals = PoissonSchedule(7, options);
  const double expected = options.rate_per_s * options.seconds;
  // Poisson count: 12000 +- 4 sigma (sigma ~ 110).
  EXPECT_NEAR(static_cast<double>(arrivals.size()), expected, 450.0);
  std::array<size_t, kFrameClassCount> per_class{};
  std::array<size_t, 2> per_connection{};
  double last = 0.0;
  for (const Arrival& arrival : arrivals) {
    EXPECT_GE(arrival.due_s, last);
    EXPECT_LT(arrival.due_s, options.seconds);
    last = arrival.due_s;
    ASSERT_LT(arrival.connection, 2u);
    ++per_connection[arrival.connection];
    const auto cls = static_cast<size_t>(arrival.frame_class);
    ASSERT_LT(cls, kFrameClassCount);
    EXPECT_LT(arrival.payload, options.pool_sizes[cls]);
    ++per_class[cls];
  }
  const double n = static_cast<double>(arrivals.size());
  for (size_t cls = 0; cls < kFrameClassCount; ++cls) {
    EXPECT_NEAR(static_cast<double>(per_class[cls]) / n,
                options.class_mix[cls], 0.02);
  }
  EXPECT_NEAR(static_cast<double>(per_connection[0]) / n, 0.5, 0.03);
}

TEST(MetricNames, Validation) {
  EXPECT_TRUE(IsValidMetricName("op_p50_ms"));
  EXPECT_TRUE(IsValidMetricName("serve.exec_us.point"));
  EXPECT_TRUE(IsValidMetricName("plan.greedy_ms.graphene_sched"));
  EXPECT_TRUE(IsValidMetricName("A-Z.0-9"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("stage.synthesize+analyze"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("slash/name"));
  EXPECT_FALSE(IsValidMetricName("quote\""));
}

TEST(Report, RejectsInvalidNames) {
  Report report;
  EXPECT_DEATH(report.Metric("bad name", 1.0, "ms"), "bad metric");
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer tracer(true);
  uint64_t root = tracer.Add("study.run", 0.0, 10.0, 0, 1);
  tracer.Add("core.join", 1.0, 4.0, root, 1);
  tracer.Add("core.join", 3.0, 6.0, root, 1);  // overlaps the first
  tracer.Add("package.popcon", 8.0, 12.0, root, 1);  // runs past the end
  auto self = tracer.SelfSecondsByLayer();
  EXPECT_DOUBLE_EQ(self["study"], 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self["core"], 6.0);
  EXPECT_DOUBLE_EQ(self["package"], 4.0);
}

TEST(Tracer, ScopedSpansNestOnOneThread) {
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "plan.batch");
    ScopedSpan inner(tracer, "plan.greedy");
  }
  EXPECT_EQ(tracer.size(), 2u);
  auto self = tracer.SelfSecondsByLayer();
  EXPECT_GE(self["plan"], 0.0);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  {
    ScopedSpan span(tracer, "plan.batch");
  }
  EXPECT_EQ(tracer.Add("serve.roundtrip", 0.0, 1.0, 0, 1), 0u);
  EXPECT_EQ(tracer.size(), 0u);
}

}  // namespace
}  // namespace lapis::perfbench
