#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace amac::util {
namespace {

TEST(Stats, BasicMoments) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.total(), 10.0);
}

TEST(Stats, StddevPopulation) {
  Summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(Stats, StddevDegenerate) {
  Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, MedianOddEven) {
  Summary odd;
  for (const double v : {5.0, 1.0, 3.0}) odd.add(v);
  EXPECT_DOUBLE_EQ(odd.median(), 3.0);

  Summary even;
  for (const double v : {4.0, 1.0, 3.0, 2.0}) even.add(v);
  EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

TEST(Stats, PercentileEndpoints) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Stats, AddAfterReadKeepsConsistency) {
  Summary s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
  EXPECT_DOUBLE_EQ(s.mean(), 15.0);
}

TEST(Stats, NearestRankPicksTheCeilRankSample) {
  std::vector<int> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(nearest_rank(v, 0.5), 50);
  EXPECT_EQ(nearest_rank(v, 0.99), 99);
  EXPECT_EQ(nearest_rank(v, 1.0), 100);
  // Ten samples: ceil(0.99 * 10) = 10 is the largest, not the 9th.
  const std::vector<int> ten = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(nearest_rank(ten, 0.5), 50);
  EXPECT_EQ(nearest_rank(ten, 0.99), 100);
  EXPECT_EQ(nearest_rank(ten, 1.0), 100);
}

TEST(Stats, NearestRankSingleSample) {
  const std::vector<int> one = {7};
  EXPECT_EQ(nearest_rank(one, 0.0), 7);
  EXPECT_EQ(nearest_rank(one, 0.5), 7);
  EXPECT_EQ(nearest_rank(one, 0.99), 7);
  EXPECT_EQ(nearest_rank(one, 1.0), 7);
}

TEST(Stats, SingleSamplePercentile) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(75), 7.0);
}

}  // namespace
}  // namespace amac::util
