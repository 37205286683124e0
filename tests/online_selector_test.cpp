#include "select/online_selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace psi {
namespace {

QueryFeatures PathQuery(uint32_t n, uint64_t freq) {
  QueryFeatures f;
  f.num_vertices = n;
  f.num_edges = n - 1;
  f.avg_degree = 2.0 * f.num_edges / n;
  f.max_degree = 2;
  f.path_fraction = 1.0;
  f.distinct_labels = 2;
  f.min_label_freq = freq;
  f.avg_label_freq = static_cast<double>(freq);
  return f;
}

QueryFeatures DenseQuery(uint32_t n, uint64_t freq) {
  QueryFeatures f;
  f.num_vertices = n;
  f.num_edges = n * (n - 1) / 2;
  f.avg_degree = n - 1.0;
  f.max_degree = n - 1;
  f.path_fraction = 0.0;
  f.distinct_labels = 4;
  f.min_label_freq = freq;
  f.avg_label_freq = static_cast<double>(freq);
  return f;
}

TEST(OnlineSelectorTest, NoHistoryNoPrediction) {
  OnlineSelector s;
  EXPECT_EQ(s.Predict(PathQuery(10, 5), 4), OnlineSelector::kNoPrediction);
  EXPECT_EQ(s.sample_count(), 0u);
}

TEST(OnlineSelectorTest, LearnsSeparableClusters) {
  OnlineSelector s(3);
  // Path-shaped queries win with variant 1; dense ones with variant 2.
  for (uint32_t i = 0; i < 10; ++i) {
    s.Observe(PathQuery(8 + i, 100), 1);
    s.Observe(DenseQuery(6 + i % 3, 100), 2);
  }
  EXPECT_EQ(s.Predict(PathQuery(12, 100), 4), 1u);
  EXPECT_EQ(s.Predict(DenseQuery(7, 100), 4), 2u);
}

TEST(OnlineSelectorTest, RankIsAFullPermutation) {
  OnlineSelector s(3);
  for (int i = 0; i < 5; ++i) s.Observe(PathQuery(10, 50), 3);
  auto order = s.Rank(PathQuery(10, 50), 5);
  ASSERT_EQ(order.size(), 5u);
  std::vector<bool> seen(5, false);
  for (size_t v : order) {
    ASSERT_LT(v, 5u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_EQ(order[0], 3u);  // the only supported variant ranks first
}

TEST(OnlineSelectorTest, IgnoresOutOfRangeWinners) {
  OnlineSelector s;
  s.Observe(PathQuery(10, 5), 99);  // variant id beyond the portfolio
  EXPECT_EQ(s.Predict(PathQuery(10, 5), 4), OnlineSelector::kNoPrediction);
}

TEST(OnlineSelectorTest, SampleCapEvictsOldest) {
  OnlineSelector s(1);
  s.set_max_samples(4);
  for (int i = 0; i < 10; ++i) s.Observe(PathQuery(10, 5), 0);
  EXPECT_EQ(s.sample_count(), 4u);

  // Through 3 x cap observations with distinct winners, the capped
  // selector ranks and predicts exactly like a fresh one fed only the
  // last cap observations, at every step: the evicted samples are gone
  // and the held ones keep their age order, which breaks ties among the
  // equidistant samples the period-3 features repeat.
  constexpr size_t kCap = 5;
  constexpr size_t kObservations = 3 * kCap;
  const auto features = [](size_t i) {
    switch (i % 3) {
      case 0:
        return PathQuery(9, 10);
      case 1:
        return DenseQuery(6, 10);
      default:
        return PathQuery(12, 300);
    }
  };
  std::vector<QueryFeatures> grid;
  for (uint32_t n : {4u, 6u, 9u, 12u}) {
    for (uint64_t freq : {1u, 10u, 300u}) {
      grid.push_back(PathQuery(n, freq));
      grid.push_back(DenseQuery(n, freq));
    }
  }
  OnlineSelector capped(2);
  capped.set_max_samples(kCap);
  for (size_t t = 1; t <= kObservations; ++t) {
    capped.Observe(features(t - 1), t - 1);
    OnlineSelector fresh(2);
    for (size_t i = t > kCap ? t - kCap : 0; i < t; ++i) {
      fresh.Observe(features(i), i);
    }
    ASSERT_EQ(capped.sample_count(), std::min(t, kCap));
    for (const QueryFeatures& f : grid) {
      EXPECT_EQ(capped.Rank(f, kObservations), fresh.Rank(f, kObservations))
          << "after " << t << " observations";
      EXPECT_EQ(capped.Predict(f, kObservations),
                fresh.Predict(f, kObservations))
          << "after " << t << " observations";
    }
  }
}

TEST(OnlineSelectorTest, LoweringTheCapKeepsTheNewest) {
  OnlineSelector capped(1);
  capped.set_max_samples(4);
  for (size_t i = 0; i < 7; ++i) capped.Observe(PathQuery(10, 5), i);
  capped.set_max_samples(2);
  OnlineSelector fresh(1);
  for (size_t i = 5; i < 7; ++i) fresh.Observe(PathQuery(10, 5), i);
  EXPECT_EQ(capped.sample_count(), 2u);
  EXPECT_EQ(capped.Rank(PathQuery(10, 5), 7), fresh.Rank(PathQuery(10, 5), 7));
  // The oldest held sample wins the tie among equidistant samples.
  EXPECT_EQ(capped.Predict(PathQuery(10, 5), 7), 5u);
}

TEST(OnlineSelectorTest, NearestNeighbourWinsOverFarMajority) {
  OnlineSelector s(1);  // k=1: the closest sample decides
  for (int i = 0; i < 20; ++i) s.Observe(DenseQuery(12, 1000), 0);
  s.Observe(PathQuery(10, 10), 1);
  EXPECT_EQ(s.Predict(PathQuery(10, 10), 2), 1u);
}

}  // namespace
}  // namespace psi
