// Lemma-level invariants of wPAXOS, monitored at every simulation event.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "net/topologies.hpp"
#include "verify/invariants.hpp"

namespace amac::verify {
namespace {

void run_with_monitor(const net::Graph& g, std::uint64_t seed,
                      core::wpaxos::WPaxosConfig cfg = {}) {
  const std::size_t n = g.node_count();
  util::Rng rng(seed);
  const auto inputs = harness::inputs_random(n, rng);
  const auto ids = harness::permuted_ids(n, rng);
  cfg.track_responses = true;

  mac::UniformRandomScheduler sched(3, rng());
  mac::Network net(g, harness::wpaxos_factory(inputs, ids, cfg), sched);
  ResponseConservationMonitor monitor(ids);
  net.set_post_event_hook(
      [&monitor](mac::Network& network) { monitor.check(network); });
  const auto result = net.run(mac::StopWhen::kAllDecided, 1'000'000);

  ASSERT_TRUE(result.condition_met);
  EXPECT_FALSE(monitor.violated()) << monitor.report();
  EXPECT_GT(monitor.checks_performed(), 0u);
  const auto verdict = check_consensus(net, inputs);
  EXPECT_TRUE(verdict.ok()) << verdict.summary();
}

TEST(Lemma42, HoldsOnLine) { run_with_monitor(net::make_line(8), 1); }
TEST(Lemma42, HoldsOnRing) { run_with_monitor(net::make_ring(9), 2); }
TEST(Lemma42, HoldsOnGrid) { run_with_monitor(net::make_grid(3, 3), 3); }
TEST(Lemma42, HoldsOnClique) { run_with_monitor(net::make_clique(7), 4); }
TEST(Lemma42, HoldsOnStar) { run_with_monitor(net::make_star(8), 5); }

TEST(Lemma42, HoldsWithoutAggregation) {
  core::wpaxos::WPaxosConfig cfg;
  cfg.aggregate_responses = false;
  run_with_monitor(net::make_grid(3, 3), 6, cfg);
}

// The next two strawmen react to other roots' searches, which dead-root
// pruning mostly removes, so they run against Algorithms 3 and 4 verbatim.
TEST(Lemma42, HoldsWithoutTreePriority) {
  core::wpaxos::WPaxosConfig cfg;
  cfg.prune_dead_roots = false;
  cfg.skip_seen_changes = false;
  cfg.tree_priority = false;
  run_with_monitor(net::make_ring(8), 7, cfg);
}

TEST(Lemma42, HoldsUnderProposalStorm) {
  core::wpaxos::WPaxosConfig cfg;
  cfg.prune_dead_roots = false;
  cfg.skip_seen_changes = false;
  cfg.change_gating = false;
  run_with_monitor(net::make_line(6), 8, cfg);
}

TEST(Lemma44, TagsBoundedByChangeEvents) {
  // Lemma 4.4's mechanism: each change event spawns at most
  // kProposalsPerChange proposals, and tags only ever step to (max seen)+1,
  // so the largest tag is bounded by total proposals started.
  const auto g = net::make_grid(4, 4);
  const std::size_t n = g.node_count();
  util::Rng rng(9);
  const auto inputs = harness::inputs_random(n, rng);
  const auto ids = harness::permuted_ids(n, rng);
  mac::UniformRandomScheduler sched(4, rng());
  mac::Network net(g, harness::wpaxos_factory(inputs, ids), sched);
  net.run(mac::StopWhen::kAllDecided, 1'000'000);

  const auto stats = harness::collect_protocol_stats(net);
  const auto tag = stats.max_round;  // the largest tag any node saw
  const auto changes = stats.change_events;
  EXPECT_LE(tag, 2 * changes + n);
  // The polynomial bound itself (very loose form of O(n^k)).
  EXPECT_LE(tag, 4 * n * n);
}

TEST(Lemma44, TagsStaySmallAfterStabilization) {
  // With the synchronous scheduler there is little churn: tags stay tiny.
  const auto g = net::make_line(10);
  const std::size_t n = 10;
  const auto inputs = harness::inputs_alternating(n);
  const auto ids = harness::identity_ids(n);
  mac::SynchronousScheduler sched(1);
  mac::Network net(g, harness::wpaxos_factory(inputs, ids), sched);
  net.run(mac::StopWhen::kAllDecided, 1'000'000);
  EXPECT_LE(harness::collect_protocol_stats(net).max_round, 12u);
}

}  // namespace
}  // namespace amac::verify
