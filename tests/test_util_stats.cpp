#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace amac::util {
namespace {

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

}  // namespace
}  // namespace amac::util
