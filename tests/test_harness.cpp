#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/topologies.hpp"

namespace amac::harness {
namespace {

TEST(Inputs, AllConstant) {
  EXPECT_EQ(inputs_all(4, 1), (std::vector<mac::Value>{1, 1, 1, 1}));
}

TEST(Inputs, Alternating) {
  EXPECT_EQ(inputs_alternating(5), (std::vector<mac::Value>{0, 1, 0, 1, 0}));
}

TEST(Inputs, SplitHalves) {
  EXPECT_EQ(inputs_split(4), (std::vector<mac::Value>{0, 0, 1, 1}));
  EXPECT_EQ(inputs_split(5), (std::vector<mac::Value>{0, 0, 1, 1, 1}));
}

TEST(Inputs, RandomBinaryOnly) {
  util::Rng rng(2);
  const auto v = inputs_random(100, rng);
  for (const auto x : v) EXPECT_TRUE(x == 0 || x == 1);
  // Not all equal with overwhelming probability.
  EXPECT_NE(std::count(v.begin(), v.end(), 0), 0);
  EXPECT_NE(std::count(v.begin(), v.end(), 1), 0);
}

TEST(Ids, IdentityAndPermutation) {
  EXPECT_EQ(identity_ids(3), (std::vector<std::uint64_t>{0, 1, 2}));
  util::Rng rng(3);
  const auto p = permuted_ids(50, rng);
  auto sorted = p;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, identity_ids(50));
}

TEST(Runner, ReportsStatsAndVerdict) {
  const auto g = net::make_clique(3);
  const auto inputs = inputs_all(3, 0);
  mac::SynchronousScheduler sched(1);
  const auto outcome =
      run_consensus(g, two_phase_factory(inputs), sched, inputs, 1000);
  EXPECT_TRUE(outcome.verdict.ok());
  EXPECT_GT(outcome.stats.broadcasts, 0u);
  EXPECT_GT(outcome.stats.deliveries, 0u);
}

TEST(Runner, TimeoutYieldsNonTermination) {
  const auto g = net::make_line(30);
  const auto inputs = inputs_alternating(30);
  mac::SynchronousScheduler sched(10);
  // Far too little time for consensus on a 30-line.
  const auto outcome = run_consensus(
      g, wpaxos_factory(inputs, identity_ids(30)), sched, inputs, 20);
  EXPECT_FALSE(outcome.verdict.termination);
}

TEST(Factories, KnowledgeDiscipline) {
  // Anonymous factory produces processes with identical digests across
  // nodes with the same input — no id leakage.
  const auto f = anonymous_factory({1, 1}, 4);
  auto p0 = f(0);
  auto p1 = f(1);
  util::Hasher h0;
  p0->digest(h0);
  util::Hasher h1;
  p1->digest(h1);
  EXPECT_EQ(h0.digest(), h1.digest());
}

}  // namespace
}  // namespace amac::harness
