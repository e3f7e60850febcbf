// Tests of the benchmark's own measurement helpers (src/harness.h).

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {
namespace {

using std::chrono::microseconds;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRankWithSampleCount) {
  auto v = OneTo(1000);
  const Quantile p50 = Percentile(&v, 0.5);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.samples, 1000u);
  EXPECT_EQ(p50.beyond, 500u);
  const Quantile p99 = Percentile(&v, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(Supported(p99));
}

TEST(PercentileTest, TenBeyondRule) {
  auto short_of = OneTo(999);
  const Quantile p99 = Percentile(&short_of, 0.99);
  EXPECT_EQ(p99.beyond, 9u);
  EXPECT_FALSE(Supported(p99));
  // The smallest samples with ten beyond: 20 for the median, 10 000 for
  // the 99.9th percentile.
  auto twenty = OneTo(20);
  EXPECT_TRUE(Supported(Percentile(&twenty, 0.5)));
  auto nineteen = OneTo(19);
  EXPECT_FALSE(Supported(Percentile(&nineteen, 0.5)));
  auto ten_thousand = OneTo(10000);
  EXPECT_TRUE(Supported(Percentile(&ten_thousand, 0.999)));
  auto short_thousandth = OneTo(9999);
  EXPECT_FALSE(Supported(Percentile(&short_thousandth, 0.999)));
}

TEST(PercentileTest, EmptyAndSingle) {
  std::vector<double> empty;
  const Quantile none = Percentile(&empty, 0.5);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.value, 0.0);
  std::vector<double> one = {7.0};
  EXPECT_EQ(Percentile(&one, 0.99).value, 7.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

// A sender stalls for 5 ms at request 100 and then catches up; a FIFO
// server needs 10 us per request. Timing from the due instant charges the
// stall to every request queued behind it; timing from the actual send
// (the approach this benchmark replaces) hides it.
TEST(ScheduleTest, DueTimeLatencyCountsAStall) {
  const Clock::time_point start{};
  const Schedule schedule(start, 20000.0);  // one request every 50 us
  EXPECT_EQ(schedule.Due(0), start);
  EXPECT_EQ(schedule.Due(20000) - start, std::chrono::seconds(1));

  const auto stall_end = schedule.Due(100) + microseconds(5000);
  const auto service = microseconds(10);
  std::vector<double> from_due, from_send;
  Clock::time_point server_free = start;
  for (size_t i = 0; i < 400; ++i) {
    const auto due = schedule.Due(i);
    const auto sent = (due >= schedule.Due(100) && due < stall_end)
                          ? stall_end
                          : due;
    const auto done = std::max(sent, server_free) + service;
    server_free = done;
    from_due.push_back(DueLatencyUs(due, done));
    from_send.push_back(ToUs(done - sent));
  }
  EXPECT_NEAR(from_due[100], 5010.0, 1e-6);
  EXPECT_NEAR(from_send[100], 10.0, 1e-6);
  // The 100 requests due during the stall all wait for it.
  const auto stalled = std::count_if(from_due.begin(), from_due.end(),
                                     [](double us) { return us > 1000.0; });
  EXPECT_GE(stalled, 80);
  auto due_sorted = from_due;
  auto send_sorted = from_send;
  EXPECT_GT(Percentile(&due_sorted, 0.99).value, 4000.0);
  EXPECT_LT(Percentile(&send_sorted, 0.99).value, 1100.0);
}

// Five windows of 100 requests, one per millisecond; the third window
// holds an outside stall. The best-quarter window ignores it; the
// throughput of a window is its requests over its completion span.
TEST(WindowTest, BestQuarterIgnoresAStalledWindow) {
  std::vector<double> latency, done;
  for (size_t i = 0; i < 500; ++i) {
    const bool stalled = i >= 200 && i < 300;
    latency.push_back(stalled ? 5000.0 : 10.0 + static_cast<double>(i % 100));
    done.push_back(0.001 * static_cast<double>(i + 1));
  }
  const Windowed w = SplitWindows(latency, done, 5);
  EXPECT_EQ(w.windows, 5u);
  EXPECT_EQ(w.per_window, 100u);
  EXPECT_EQ(w.min_beyond, 1u);  // 100 samples put one beyond the p99
  EXPECT_EQ(w.p50, 59.0);
  EXPECT_EQ(w.p99, 108.0);
  EXPECT_NEAR(w.tput, 1000.0, 1e-6);
  EXPECT_EQ(SplitWindows({}, {}, 5).windows, 0u);
}

TEST(WindowTest, BestQuarterIsNearestRank) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(BestQuarter(ten, false), 3.0);  // rank ceil(2.5) = 3 from below
  EXPECT_EQ(BestQuarter(ten, true), 8.0);   // rank 3 from above
  EXPECT_EQ(BestQuarter({4.0}, false), 4.0);
  EXPECT_EQ(BestQuarter({}, true), 0.0);
}

TEST(FitTest, RecoversInterceptAndSlope) {
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i % 50);
    // Symmetric +-0.1 noise keeps the least-squares line exact.
    y.push_back(3.0 + 0.5 * (i % 50) + ((i / 50) % 2 == 0 ? 0.1 : -0.1));
  }
  const LinearFit fit = FitLine(x, y);
  EXPECT_EQ(fit.n, 200u);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 0.5, 1e-9);
}

TEST(FitTest, ConstantXGivesMean) {
  const LinearFit fit = FitLine({2.0, 2.0, 2.0}, {1.0, 2.0, 6.0});
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_EQ(FitLine({}, {}).n, 0u);
}

TEST(DigestTest, BitExactAnswersOnly) {
  const std::vector<pti::Match> a = {{3, 0.25}, {17, 0.5}};
  EXPECT_EQ(DigestOf(a), DigestOf(a));
  EXPECT_EQ(DigestOf(a).count, 2u);

  auto moved = a;
  moved[1].position = 18;
  EXPECT_NE(DigestOf(a), DigestOf(moved));

  auto last_bit = a;
  last_bit[0].probability = std::nextafter(0.25, 1.0);
  EXPECT_NE(DigestOf(a), DigestOf(last_bit));

  const std::vector<pti::Match> reordered = {a[1], a[0]};
  EXPECT_NE(DigestOf(a), DigestOf(reordered));

  const std::vector<pti::Match> prefix = {a[0]};
  EXPECT_NE(DigestOf(a), DigestOf(prefix));
  EXPECT_EQ(DigestOf({}).count, 0u);
}

TEST(TraceTest, SelfTimeSubtractsChildren) {
  Trace trace;
  const uint32_t outer = trace.Layer("sharded");
  const uint32_t inner = trace.Layer("core");
  EXPECT_EQ(trace.Layer("sharded"), outer);
  const Clock::time_point t{};
  const int32_t parent = trace.Record(outer, 0, t, t + microseconds(100));
  trace.Record(inner, 0, t + microseconds(10), t + microseconds(40), parent,
               5.0);
  trace.Record(inner, 0, t + microseconds(50), t + microseconds(70), parent,
               2.0);
  EXPECT_EQ(trace.DurationsUs(inner), (std::vector<double>{30.0, 20.0}));
  EXPECT_EQ(trace.SelfUs(outer), std::vector<double>{50.0});
  EXPECT_EQ(trace.SelfUs(inner), (std::vector<double>{30.0, 20.0}));
  EXPECT_EQ(trace.spans()[1].work, 5.0);
}

}  // namespace
}  // namespace perfbench
