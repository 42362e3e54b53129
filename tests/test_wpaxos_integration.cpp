// End-to-end wPAXOS property sweeps (Theorem 4.6): consensus holds on every
// topology x scheduler x seed combination, in O(D * F_ack) time.
#include <gtest/gtest.h>

#include "core/wpaxos/wpaxos.hpp"
#include "harness/experiment.hpp"
#include "net/paper_networks.hpp"
#include "net/topologies.hpp"

namespace amac::core::wpaxos {
namespace {

struct TopoCase {
  const char* name;
  net::Graph graph;
};

std::vector<TopoCase> topologies() {
  util::Rng rng(99);
  std::vector<TopoCase> cases;
  cases.push_back({"clique8", net::make_clique(8)});
  cases.push_back({"line12", net::make_line(12)});
  cases.push_back({"ring15", net::make_ring(15)});
  cases.push_back({"grid4x4", net::make_grid(4, 4)});
  cases.push_back({"star9", net::make_star(9)});
  cases.push_back({"tree15", net::make_binary_tree(15)});
  cases.push_back({"barbell", net::make_barbell(4, 4)});
  cases.push_back({"random20", net::make_random_connected(20, 0.15, rng)});
  cases.push_back({"geo25", net::make_random_geometric(25, 0.25, rng)});
  return cases;
}

// Parameterized over (topology index, scheduler kind): every combination
// is its own reported test case.
// The values seed each case's rng, so they stay fixed.
enum class SchedKind {
  kSynchronous = 0,
  kRandom = 1,
  kSkewed = 2,
  kContention = 4
};

class WPaxosTopoSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, SchedKind>> {};

TEST_P(WPaxosTopoSweep, ConsensusHolds) {
  const auto [topo_index, kind] = GetParam();
  auto cases = topologies();
  ASSERT_LT(topo_index, cases.size());
  auto& tc = cases[topo_index];
  const std::size_t n = tc.graph.node_count();

  util::Rng rng(1234 + topo_index * 31 + static_cast<std::size_t>(kind));
  for (int trial = 0; trial < 3; ++trial) {
    const auto inputs = harness::inputs_random(n, rng);
    const auto ids = harness::permuted_ids(n, rng);
    const mac::Time fack = 1 + rng.uniform(0, 5);

    std::unique_ptr<mac::Scheduler> sched;
    switch (kind) {
      case SchedKind::kSynchronous:
        sched = std::make_unique<mac::SynchronousScheduler>(fack);
        break;
      case SchedKind::kRandom:
        sched = std::make_unique<mac::UniformRandomScheduler>(fack, rng());
        break;
      case SchedKind::kSkewed:
        sched = std::make_unique<mac::SkewedScheduler>(fack, rng());
        break;
      case SchedKind::kContention:
        sched = std::make_unique<mac::ContentionScheduler>(
            1, /*fack_bound=*/n + 4, rng());
        break;
    }
    const auto outcome = harness::run_consensus(
        tc.graph, harness::wpaxos_factory(inputs, ids), *sched, inputs,
        5'000'000);
    ASSERT_TRUE(outcome.verdict.ok())
        << tc.name << " trial " << trial << ": " << outcome.verdict.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologiesAllSchedulers, WPaxosTopoSweep,
    ::testing::Combine(::testing::Range<std::size_t>(0, 9),
                       ::testing::Values(SchedKind::kSynchronous,
                                         SchedKind::kRandom,
                                         SchedKind::kSkewed,
                                         SchedKind::kContention)));

TEST(WPaxosIntegration, UniformInputsDecideThatValue) {
  const auto g = net::make_grid(3, 3);
  for (const mac::Value v : {0, 1}) {
    const auto inputs = harness::inputs_all(9, v);
    const auto ids = harness::identity_ids(9);
    mac::UniformRandomScheduler sched(4, 777);
    const auto outcome = harness::run_consensus(
        g, harness::wpaxos_factory(inputs, ids), sched, inputs, 1'000'000);
    ASSERT_TRUE(outcome.verdict.ok());
    EXPECT_EQ(*outcome.verdict.decision, v);
  }
}

TEST(WPaxosIntegration, SingleNode) {
  const auto g = net::make_clique(1);
  const std::vector<mac::Value> inputs{1};
  mac::SynchronousScheduler sched(1);
  const auto outcome = harness::run_consensus(
      g, harness::wpaxos_factory(inputs, {5}), sched, inputs, 1000);
  ASSERT_TRUE(outcome.verdict.ok());
  EXPECT_EQ(*outcome.verdict.decision, 1);
}

TEST(WPaxosIntegration, TwoNodes) {
  const auto g = net::make_clique(2);
  const std::vector<mac::Value> inputs{1, 0};
  mac::UniformRandomScheduler sched(3, 42);
  const auto outcome = harness::run_consensus(
      g, harness::wpaxos_factory(inputs, {10, 20}), sched, inputs, 100000);
  ASSERT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
}

TEST(WPaxosIntegration, TimeScalesWithDTimesFack) {
  // Theorem 4.6's shape: decision time normalized by D * F_ack stays
  // bounded as the line grows (it would grow linearly if time were
  // O(n * F_ack) on a bounded-D family — see the grid check below).
  const mac::Time fack = 3;
  util::Rng rng(31);
  std::vector<double> normalized;
  for (const std::size_t side : {3u, 5u, 7u}) {
    const auto g = net::make_grid(side, side);
    const std::size_t n = g.node_count();
    const auto d = g.diameter();
    const auto inputs = harness::inputs_alternating(n);
    const auto ids = harness::permuted_ids(n, rng);
    mac::SynchronousScheduler sched(fack);
    const auto outcome = harness::run_consensus(
        g, harness::wpaxos_factory(inputs, ids), sched, inputs, 10'000'000);
    ASSERT_TRUE(outcome.verdict.ok());
    normalized.push_back(static_cast<double>(outcome.verdict.last_decision) /
                         (static_cast<double>(d) * fack));
  }
  // The constant may wobble but must not scale with n/D (= side here):
  // going from 3x3 to 7x7 multiplies n/D by ~2.3; a Theta(n*Fack)
  // algorithm's normalized time would grow by that factor.
  EXPECT_LT(normalized[2], normalized[0] * 2.0)
      << normalized[0] << " -> " << normalized[2];
}

TEST(WPaxosIntegration, MessageSizeStaysBounded) {
  // The O(1)-ids-per-message restriction, end to end: the largest payload
  // must not grow with n beyond varint width effects.
  std::size_t small_max = 0;
  std::size_t large_max = 0;
  for (const std::size_t n : {8u, 64u}) {
    const auto g = net::make_ring(n);
    const auto inputs = harness::inputs_alternating(n);
    const auto ids = harness::identity_ids(n);
    mac::SynchronousScheduler sched(1);
    mac::Network net(g, harness::wpaxos_factory(inputs, ids), sched);
    net.run(mac::StopWhen::kAllDecided, 1'000'000);
    (n == 8 ? small_max : large_max) = net.stats().max_payload_bytes;
  }
  EXPECT_LE(large_max, small_max + 8);  // a few extra varint bytes at most
}

TEST(WPaxosIntegration, WorksOnPaperNetworks) {
  // wPAXOS knows n, so it solves consensus even on the adversarial
  // constructions of Figures 1 and 2 (under fair schedulers).
  const auto fig1 = net::make_figure1(8, 2);
  const auto fig2 = net::make_figure2(6);
  util::Rng rng(55);
  for (const net::Graph* g : {&fig1.a, &fig1.b, &fig2.kd}) {
    const std::size_t n = g->node_count();
    const auto inputs = harness::inputs_random(n, rng);
    const auto ids = harness::permuted_ids(n, rng);
    mac::UniformRandomScheduler sched(2, rng());
    const auto outcome = harness::run_consensus(
        *g, harness::wpaxos_factory(inputs, ids), sched, inputs, 1'000'000);
    ASSERT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
  }
}

TEST(WPaxosIntegration, AblationsStillSafe) {
  // Turning the optimizations off must never break safety — only speed.
  const auto g = net::make_grid(3, 3);
  const std::size_t n = 9;
  util::Rng rng(8);
  for (const bool tree_priority : {true, false}) {
    for (const bool aggregate : {true, false}) {
      for (const bool gating : {true, false}) {
        WPaxosConfig cfg;
        cfg.tree_priority = tree_priority;
        cfg.aggregate_responses = aggregate;
        cfg.change_gating = gating;
        const auto inputs = harness::inputs_random(n, rng);
        const auto ids = harness::permuted_ids(n, rng);
        mac::UniformRandomScheduler sched(3, rng());
        const auto outcome = harness::run_consensus(
            g, harness::wpaxos_factory(inputs, ids, cfg), sched, inputs,
            5'000'000);
        ASSERT_TRUE(outcome.verdict.ok())
            << "prio=" << tree_priority << " agg=" << aggregate
            << " gate=" << gating << ": " << outcome.verdict.summary();
      }
    }
  }
}

TEST(WPaxosIntegration, DeterministicGivenSeed) {
  const auto g = net::make_ring(10);
  const auto inputs = harness::inputs_alternating(10);
  const auto ids = harness::identity_ids(10);
  mac::Time t1 = 0;
  mac::Time t2 = 0;
  for (int round = 0; round < 2; ++round) {
    mac::UniformRandomScheduler sched(5, 4242);
    const auto outcome = harness::run_consensus(
        g, harness::wpaxos_factory(inputs, ids), sched, inputs, 1'000'000);
    ASSERT_TRUE(outcome.verdict.ok());
    (round == 0 ? t1 : t2) = outcome.verdict.last_decision;
  }
  EXPECT_EQ(t1, t2);
}

}  // namespace
}  // namespace amac::core::wpaxos
