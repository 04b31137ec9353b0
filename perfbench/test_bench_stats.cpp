// Tests of the perfbench helpers: the tail-percentile reporting rule,
// span self-time arithmetic on hand-built events, and the seeded
// Poisson arrival schedule.
#include "perfbench/bench_stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using seghdc::obs::TraceEvent;

TraceEvent span(const char* name, std::uint32_t tid, std::uint64_t start,
                std::uint64_t dur) {
  TraceEvent event;
  event.name = name;
  event.cat = "test";
  event.tid = tid;
  event.start_ns = start;
  event.dur_ns = dur;
  return event;
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(perfbench::reportable_tail_percentile(0), 0.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(19), 0.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(20), 50.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(99), 50.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(100), 90.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(101), 90.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(999), 90.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(1000), 99.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(9999), 99.0);
  EXPECT_EQ(perfbench::reportable_tail_percentile(10000), 99.9);
}

TEST(TailPercentile, ReportedSampleLeavesTenAbove) {
  for (std::size_t n = 20; n <= 2000; n += 7) {
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<double>(i);
    }
    const double q = perfbench::reportable_tail_percentile(n);
    const double at = perfbench::percentile(values, q);
    EXPECT_GE(static_cast<double>(n) - 1.0 - at, 10.0) << "n=" << n;
  }
}

TEST(Percentile, NearestRankAndMedian) {
  const std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(perfbench::percentile(values, 50), 3.0);
  EXPECT_EQ(perfbench::percentile(values, 90), 5.0);
  EXPECT_EQ(perfbench::percentile(values, 10), 1.0);
  EXPECT_EQ(perfbench::median(values), 3.0);
  EXPECT_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(perfbench::median({}), 0.0);
}

TEST(SpanTree, SelfTimeSubtractsDirectChildrenOnly) {
  // tid 1: request [0,100) > encode [0,30) + cluster [30,95);
  // cluster > iter [35,60) > assign [40,50); iter [60,90) > assign [70,85).
  const std::vector<TraceEvent> events = {
      span("request", 1, 0, 100),  span("encode", 1, 0, 30),
      span("cluster", 1, 30, 65),  span("iter", 1, 35, 25),
      span("assign", 1, 40, 10),   span("iter", 1, 60, 30),
      span("assign", 1, 70, 15),
  };
  const auto tree = perfbench::build_span_tree(events);
  EXPECT_EQ(tree.parent[0], -1);
  EXPECT_EQ(tree.parent[1], 0);
  EXPECT_EQ(tree.parent[2], 0);
  EXPECT_EQ(tree.parent[3], 2);
  EXPECT_EQ(tree.parent[4], 3);
  EXPECT_EQ(tree.parent[5], 2);
  EXPECT_EQ(tree.parent[6], 5);
  EXPECT_EQ(tree.self_ns[0], 5u);   // 100 - 30 - 65
  EXPECT_EQ(tree.self_ns[1], 30u);
  EXPECT_EQ(tree.self_ns[2], 10u);  // 65 - 25 - 30
  EXPECT_EQ(tree.self_ns[3], 15u);  // 25 - 10
  EXPECT_EQ(tree.self_ns[5], 15u);  // 30 - 15
  EXPECT_EQ(tree.self_ns[6], 15u);
}

TEST(SpanTree, ThreadsAndRetroactiveSpansDoNotNest) {
  // A span on another thread inside the same interval is not a child; a
  // queue_wait recorded retroactively on the worker is neither parent
  // nor child.
  const std::vector<TraceEvent> events = {
      span("work", 1, 0, 100),
      span("other", 2, 10, 20),
      span("queue_wait", 1, 20, 500),
      span("inner", 1, 30, 40),
  };
  const auto tree = perfbench::build_span_tree(events);
  EXPECT_EQ(tree.parent[1], -1);
  EXPECT_EQ(tree.parent[2], -1);
  EXPECT_EQ(tree.parent[3], 0);
  EXPECT_EQ(tree.self_ns[0], 60u);
  EXPECT_EQ(tree.self_ns[1], 20u);
  EXPECT_EQ(tree.self_ns[2], 500u);
}

TEST(SpanTree, SiblingsAfterParentEndsAreRoots) {
  const std::vector<TraceEvent> events = {
      span("a", 1, 0, 10), span("b", 1, 10, 10), span("c", 1, 12, 3),
  };
  const auto tree = perfbench::build_span_tree(events);
  EXPECT_EQ(tree.parent[1], -1);  // starts exactly when a ends
  EXPECT_EQ(tree.parent[2], 1);
  EXPECT_EQ(tree.self_ns[0], 10u);
  EXPECT_EQ(tree.self_ns[1], 7u);
}

TEST(PoissonSchedule, SeedReproducesScheduleExactly) {
  const auto a = perfbench::poisson_schedule(7, 20.0, 30.0);
  const auto b = perfbench::poisson_schedule(7, 20.0, 30.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // bit-identical, not merely close
  }
  EXPECT_NE(a, perfbench::poisson_schedule(8, 20.0, 30.0));
}

TEST(PoissonSchedule, SortedWithinDurationAtTheRequestedCount) {
  const auto due = perfbench::poisson_schedule(1, 20.0, 500.0);
  ASSERT_EQ(due.size(), 10000u);
  for (std::size_t i = 1; i < due.size(); ++i) {
    EXPECT_GE(due[i], due[i - 1]);
  }
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), 500.0);
  EXPECT_EQ(perfbench::poisson_schedule(1, 20.0, 10.0).size(), 200u);
  EXPECT_EQ(perfbench::poisson_schedule(1, 20.0, 0.01).size(), 0u);
}

TEST(PoissonSchedule, GapsAreExponential) {
  // Poisson arrivals have exponential gaps: mean 1/rate, and
  // P(gap > 1/rate) = 1/e.
  const auto due = perfbench::poisson_schedule(3, 20.0, 1000.0);
  std::size_t long_gaps = 0;
  for (std::size_t i = 1; i < due.size(); ++i) {
    long_gaps += due[i] - due[i - 1] > 0.05 ? 1 : 0;
  }
  const double share =
      static_cast<double>(long_gaps) / static_cast<double>(due.size() - 1);
  EXPECT_NEAR(share, 0.3679, 0.01);
  EXPECT_NEAR((due.back() - due.front()) / static_cast<double>(due.size() - 1),
              0.05, 0.001);
}

}  // namespace
