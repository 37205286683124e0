#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace psi {
namespace {

TEST(SummarizeTest, KnownValues) {
  const double vals[] = {1.0, 2.0, 3.0, 4.0};
  auto s = Summarize(vals);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.std_dev, 1.1180, 1e-3);
  EXPECT_EQ(s.count, 4u);
}

TEST(SummarizeTest, OddMedianAndEmpty) {
  const double vals[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Summarize(vals).median, 3.0);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(WlaTest, MatchesPaperDefinition) {
  // WLA = avg(base)/avg(alt): dominated by the straggler in base.
  const double base[] = {1.0, 1.0, 598.0};  // avg 200
  const double alt[] = {1.0, 1.0, 1.0};     // avg 1
  EXPECT_DOUBLE_EQ(WlaRatio(base, alt), 200.0);
}

TEST(QlaTest, MatchesPaperDefinition) {
  // QLA = avg of per-query ratios: the straggler counts once.
  const double base[] = {2.0, 2.0, 600.0};
  const double alt[] = {1.0, 2.0, 200.0};
  // ratios: 2, 1, 3 -> avg 2.
  EXPECT_DOUBLE_EQ(QlaRatio(base, alt), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const double v[] = {10.0, 20.0, 30.0, 40.0};  // already sorted
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 25.0);  // midway 20..30
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 17.5);
  // Unsorted input sorts internally; out-of-range p clamps.
  const double shuffled[] = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(Percentile(shuffled, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(Percentile(shuffled, 150.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(shuffled, -5.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  const double one[] = {7.0};
  EXPECT_DOUBLE_EQ(Percentile(one, 99.0), 7.0);
}

TEST(PercentileTest, NonFiniteSamplesAndRanksAreHardened) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Non-finite samples are dropped before sorting — one stray inf must
  // not leak into every high percentile a bench writes to JSON.
  const double mixed[] = {10.0, inf, 20.0, nan, 30.0, -inf, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(mixed, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(Percentile(mixed, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(mixed, 0.0), 10.0);
  // All-non-finite behaves like empty.
  const double junk[] = {nan, inf, -inf};
  EXPECT_DOUBLE_EQ(Percentile(junk, 99.0), 0.0);
  // A NaN p normalizes to 0 (the minimum) instead of riding through the
  // rank arithmetic.
  const double v[] = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(v, nan), 10.0);
  // Single sample: every p returns it.
  const double one[] = {7.0};
  for (double p : {0.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile(one, p), 7.0) << p;
  }
  // The result is finite for any input and any p.
  EXPECT_TRUE(std::isfinite(Percentile(mixed, 99.0)));
  EXPECT_TRUE(std::isfinite(Percentile(junk, nan)));
}

TEST(PercentileTest, NonIntegerRankInterpolation) {
  // Five samples: p90 lands at rank 3.6 -> 40 + 0.6 * (50 - 40) = 46.
  const double v[] = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 90.0), 46.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 10.0), 14.0);
}

TEST(PercentileTest, TailSeparatesStragglersFromTheMedian) {
  // 95 fast queries and five stragglers: p50 ignores the stragglers,
  // the tail surfaces them — the view bench_match_parallel records per
  // width. (p99 interpolates between closest ranks, so with stragglers
  // in the top 5% it lands well above the fast plateau.)
  std::vector<double> lat(95, 1.0);
  for (int i = 0; i < 5; ++i) lat.push_back(500.0);
  EXPECT_DOUBLE_EQ(Percentile(lat, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(lat, 99.0), 500.0);
  EXPECT_DOUBLE_EQ(Percentile(lat, 100.0), 500.0);
}

TEST(QlaVsWlaTest, StragglersSeparateTheTwoViews) {
  // The paper's reason for reporting both: one straggler inflates WLA far
  // beyond QLA.
  const double base[] = {1.0, 1.0, 1.0, 1000.0};
  const double alt[] = {1.0, 1.0, 1.0, 1.0};
  EXPECT_GT(WlaRatio(base, alt), 100.0);
  EXPECT_LT(QlaRatio(base, alt), 300.0);
}

TEST(MaxMinTest, PerQuerySpread) {
  std::vector<std::vector<double>> rows = {{1.0, 10.0, 5.0}, {2.0, 2.0}};
  auto r = MaxMinRatios(rows);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 10.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);  // no variation -> metric floor of 1
}

TEST(BestOfTest, ElementwiseMin) {
  std::vector<std::vector<double>> rows = {{3.0, 1.0, 2.0}, {5.0, 7.0}};
  auto b = BestOf(rows);
  EXPECT_EQ(b, (std::vector<double>{1.0, 5.0}));
}

TEST(BucketTest, ThresholdsFromCap) {
  auto t = BucketThresholds::FromCap(600000.0);  // the paper's actual cap
  EXPECT_DOUBLE_EQ(t.easy_ms, 2000.0);           // = the paper's 2"
  EXPECT_EQ(Classify(1999.0, false, t), Bucket::kEasy);
  EXPECT_EQ(Classify(2000.0, false, t), Bucket::kMid);
  EXPECT_EQ(Classify(599999.0, false, t), Bucket::kMid);
  EXPECT_EQ(Classify(600000.0, false, t), Bucket::kHard);
  EXPECT_EQ(Classify(1.0, /*killed=*/true, t), Bucket::kHard);
}

TEST(BucketTest, BreakdownAveragesAndPercentages) {
  auto t = BucketThresholds::FromCap(300.0);  // easy < 1ms
  const double times[] = {0.5, 0.5, 10.0, 300.0};
  const uint8_t killed[] = {0, 0, 0, 1};
  auto b = BreakdownWorkload(times, killed, t);
  EXPECT_EQ(b.easy_count, 2u);
  EXPECT_EQ(b.mid_count, 1u);
  EXPECT_EQ(b.hard_count, 1u);
  EXPECT_DOUBLE_EQ(b.easy_avg_ms, 0.5);
  EXPECT_DOUBLE_EQ(b.mid_avg_ms, 10.0);
  EXPECT_DOUBLE_EQ(b.completed_avg_ms, 11.0 / 3.0);
  EXPECT_DOUBLE_EQ(b.PercentHard(), 25.0);
  EXPECT_DOUBLE_EQ(b.PercentEasy(), 50.0);
}

TEST(BucketTest, ToStringNames) {
  EXPECT_EQ(ToString(Bucket::kEasy), "easy");
  EXPECT_EQ(ToString(Bucket::kMid), "2\"-600\"");
  EXPECT_EQ(ToString(Bucket::kHard), "hard");
}

TEST(RatioEdgeCases, EmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(WlaRatio({}, {}), 0.0);
  const double zeros[] = {0.0};
  const double ones[] = {1.0};
  EXPECT_DOUBLE_EQ(WlaRatio(ones, zeros), 0.0);
  EXPECT_DOUBLE_EQ(QlaRatio(ones, zeros), 0.0);
}

TEST(PoolGaugesTest, DerivedRatesAndFormatting) {
  PoolGauges g;
  g.num_threads = 4;
  g.busy_workers = 2;
  g.queue_depth = 3;
  g.peak_queue_depth = 9;
  g.tasks_submitted = 100;
  g.tasks_executed = 80;
  g.tasks_discarded = 20;
  EXPECT_DOUBLE_EQ(g.utilization(), 0.5);
  EXPECT_DOUBLE_EQ(g.discard_rate(), 0.25);
  const std::string s = FormatPoolGauges(g);
  EXPECT_NE(s.find("threads=4"), std::string::npos);
  EXPECT_NE(s.find("queue=3"), std::string::npos);
  EXPECT_NE(s.find("peak_queue=9"), std::string::npos);
  EXPECT_NE(s.find("executed=80"), std::string::npos);
  EXPECT_NE(s.find("discarded=20"), std::string::npos);
  EXPECT_NE(s.find("util=50%"), std::string::npos);
}

TEST(PoolGaugesTest, EmptyPoolIsWellDefined) {
  PoolGauges g;
  EXPECT_DOUBLE_EQ(g.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(g.discard_rate(), 0.0);
  // A helping waiter can push busy above the worker count transiently;
  // utilization clamps to 1.
  g.num_threads = 2;
  g.busy_workers = 5;
  EXPECT_DOUBLE_EQ(g.utilization(), 1.0);
}

}  // namespace
}  // namespace psi
