#include "core/flooding.hpp"

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "net/topologies.hpp"

namespace amac::core {
namespace {

struct FloodCase {
  std::size_t n;
  std::uint64_t seed;
};

class FloodingSweep : public ::testing::TestWithParam<FloodCase> {};

TEST_P(FloodingSweep, SolvesConsensusOnRandomTopologies) {
  const auto [n, seed] = GetParam();
  util::Rng rng(seed);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = net::make_random_connected(n, 0.1, rng);
    const auto inputs = harness::inputs_random(n, rng);
    mac::UniformRandomScheduler sched(4, rng());
    const auto outcome = harness::run_consensus(
        g, harness::flooding_factory(inputs), sched, inputs, 1'000'000);
    ASSERT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
    // Decision rule: the smallest id's value — deterministic validity.
    EXPECT_EQ(*outcome.verdict.decision, inputs[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FloodingSweep,
                         ::testing::Values(FloodCase{1, 11}, FloodCase{2, 12},
                                           FloodCase{5, 13}, FloodCase{12, 14},
                                           FloodCase{25, 15},
                                           FloodCase{40, 16}));

TEST(Flooding, LineTimeGrowsLinearlyInN) {
  // The paper's bottleneck claim: on a line, pairs cross the middle at K
  // per F_ack, so decision time is Theta(n * F_ack).
  const mac::Time fack = 2;
  std::vector<mac::Time> times;
  for (const std::size_t n : {8u, 16u, 32u}) {
    const auto g = net::make_line(n);
    const auto inputs = harness::inputs_alternating(n);
    mac::SynchronousScheduler sched(fack);
    const auto outcome = harness::run_consensus(
        g, harness::flooding_factory(inputs, /*pairs=*/1), sched, inputs,
        1'000'000);
    ASSERT_TRUE(outcome.verdict.ok());
    times.push_back(outcome.verdict.last_decision);
  }
  // Doubling n should at least double the time (allowing slack of 1.8x).
  EXPECT_GE(static_cast<double>(times[1]), 1.8 * static_cast<double>(times[0]));
  EXPECT_GE(static_cast<double>(times[2]), 1.8 * static_cast<double>(times[1]));
}

TEST(Flooding, MessageSizeBounded) {
  const std::size_t n = 30;
  const auto g = net::make_line(n);
  const auto inputs = harness::inputs_alternating(n);
  mac::SynchronousScheduler sched(1);
  mac::Network net(g, harness::flooding_factory(inputs, 2), sched);
  net.run(mac::StopWhen::kAllDecided, 1'000'000);
  // 2 pairs -> 1 count byte + 2 * (varint id + value byte) <= 7 bytes here.
  EXPECT_LE(net.stats().max_payload_bytes, 7u);
}

TEST(Flooding, KnownCountReachesN) {
  const std::size_t n = 10;
  const auto g = net::make_ring(n);
  const auto inputs = harness::inputs_all(n, 1);
  mac::SynchronousScheduler sched(1);
  mac::Network net(g, harness::flooding_factory(inputs), sched);
  net.run(mac::StopWhen::kAllDecided, 100000);
  for (NodeId u = 0; u < n; ++u) {
    const auto* p = dynamic_cast<const FloodingConsensus*>(&net.process(u));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->known_count(), n);
  }
}

TEST(Flooding, LargerBatchesAreFaster) {
  const std::size_t n = 24;
  const auto g = net::make_line(n);
  const auto inputs = harness::inputs_alternating(n);
  mac::Time t_small = 0;
  mac::Time t_large = 0;
  for (const std::size_t pairs : {1u, 4u}) {
    mac::SynchronousScheduler sched(3);
    const auto outcome = harness::run_consensus(
        g, harness::flooding_factory(inputs, pairs), sched, inputs,
        1'000'000);
    ASSERT_TRUE(outcome.verdict.ok());
    (pairs == 1 ? t_small : t_large) = outcome.verdict.last_decision;
  }
  EXPECT_LT(t_large, t_small);
}

TEST(Flooding, SingleNode) {
  const auto g = net::make_clique(1);
  const std::vector<mac::Value> inputs{1};
  mac::SynchronousScheduler sched(1);
  const auto outcome = harness::run_consensus(
      g, harness::flooding_factory(inputs), sched, inputs, 100);
  ASSERT_TRUE(outcome.verdict.ok());
  EXPECT_EQ(*outcome.verdict.decision, 1);
  EXPECT_EQ(outcome.verdict.last_decision, 0u);  // decides at start
}

}  // namespace
}  // namespace amac::core
