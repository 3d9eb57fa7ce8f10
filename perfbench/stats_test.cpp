#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

using perfbench::group_median;
using perfbench::median;
using perfbench::nearest_rank;
using perfbench::samples_beyond;
using perfbench::summarize;
using perfbench::Summary;

namespace {

/// 1, 2, ..., n in shuffled order (the maths must not assume sorted input).
std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  for (std::size_t i = 0; i + 1 < n; i += 2) std::swap(v[i], v[n - 1 - i]);
  return v;
}

}  // namespace

TEST(NearestRank, PicksTheSmallestSampleCoveringTheFraction) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(nearest_rank(v, 0.05), 15);
  EXPECT_EQ(nearest_rank(v, 0.30), 20);
  EXPECT_EQ(nearest_rank(v, 0.40), 20);
  EXPECT_EQ(nearest_rank(v, 0.50), 35);
  EXPECT_EQ(nearest_rank(v, 1.00), 50);
}

TEST(NearestRank, IsExactAtIntegerRanksDespiteFloatingPoint) {
  // 0.99 * 1000 is 990.0000000000001 in binary floating point; the rank
  // must still be 990, not 991.
  EXPECT_EQ(nearest_rank(one_to(1000), 0.99), 990);
  EXPECT_EQ(nearest_rank(one_to(100), 0.07), 7);
}

TEST(NearestRank, ClampsAndHandlesEmpty) {
  EXPECT_EQ(nearest_rank({}, 0.5), 0);
  EXPECT_EQ(nearest_rank({3, 1, 2}, 0.0), 1);
  EXPECT_EQ(nearest_rank({3, 1, 2}, 7.0), 3);
}

TEST(Median, IsTheLowerMiddleSample) {
  EXPECT_EQ(median({5, 1, 3}), 3);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);
  EXPECT_EQ(median({7}), 7);
}

TEST(GroupMedian, AveragesTheMediansOfNonEmptyGroups) {
  const std::vector<std::vector<double>> groups = {{300, 100, 200}, {}, {7}};
  EXPECT_DOUBLE_EQ(group_median(groups), (200.0 + 7.0) / 2);
  EXPECT_EQ(group_median(std::vector<std::vector<double>>{{}, {}}), 0);
}

TEST(GroupMedian, DoesNotFlipWithTheMixOfTwoModes) {
  // A pooled median of two well-separated modes jumps from one mode to
  // the other as their mix moves across one half; the group median only
  // moves with the modes themselves.
  const std::vector<double> cheap(51, 30.0), dear(49, 120.0);
  std::vector<double> pooled = cheap;
  pooled.insert(pooled.end(), dear.begin(), dear.end());
  EXPECT_EQ(median(pooled), 30);
  pooled.insert(pooled.end(), 3, 120.0);
  EXPECT_EQ(median(pooled), 120);
  const std::vector<std::vector<double>> groups = {cheap, dear};
  EXPECT_DOUBLE_EQ(group_median(groups), 75);
}

TEST(SamplesBeyond, CountsSamplesAboveTheRank) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(Summarize, ReportsCountMedianAndP99WhenTenSamplesLieBeyondIt) {
  const Summary s = summarize(one_to(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_TRUE(s.p99_valid);
  EXPECT_EQ(s.p99, 990);
  EXPECT_DOUBLE_EQ(s.high_q, 0.99);
  EXPECT_EQ(s.high, 990);
}

TEST(Summarize, FallsBackToTheHighestSupportedPercentile) {
  // 200 samples support at most the 0.95 percentile (rank 190, ten
  // beyond); p99 would have only two samples beyond it.
  const Summary s = summarize(one_to(200));
  EXPECT_FALSE(s.p99_valid);
  EXPECT_DOUBLE_EQ(s.high_q, 0.95);
  EXPECT_EQ(s.high, 190);
  EXPECT_EQ(s.p99, 190);
  EXPECT_EQ(s.n - static_cast<std::size_t>(s.high), Summary::kTailSamples);
}

TEST(Summarize, TinyInputsHaveNoSupportedTail) {
  const Summary s = summarize({4, 2, 9});
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.p50, 4);
  EXPECT_DOUBLE_EQ(s.high_q, 0.0);
  EXPECT_EQ(s.high, 9);
  EXPECT_FALSE(s.p99_valid);
  EXPECT_EQ(summarize({}).n, 0u);
}
