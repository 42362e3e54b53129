#include "mac/engine.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"

namespace amac::mac {
namespace {

using testutil::probe_at;
using testutil::probe_factory;

TEST(Engine, SynchronousRoundDeliveryTimes) {
  const auto g = net::make_line(3);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(2), sched);
  net.run(StopWhen::kQuiescent, 100);

  // Node 1's receives from both neighbors: round 1 and round 2 broadcasts
  // arrive at ticks 1 and 2.
  const auto& p1 = probe_at(net, 1);
  ASSERT_EQ(p1.receives.size(), 4u);
  EXPECT_EQ(p1.receives[0].time, 1u);
  EXPECT_EQ(p1.receives[1].time, 1u);
  EXPECT_EQ(p1.receives[2].time, 2u);
  EXPECT_EQ(p1.receives[3].time, 2u);
  EXPECT_EQ(p1.acks, (std::vector<Time>{1, 2}));
}

TEST(Engine, AckNeverBeforeAnyReceive) {
  const auto g = net::make_clique(5);
  UniformRandomScheduler sched(10, /*seed=*/99);
  Network net(g, probe_factory(3), sched);
  net.run(StopWhen::kQuiescent, 1000);

  // For every sender, every receiver got broadcast i before (or at the same
  // tick as) the sender's i-th ack — the abstract MAC layer guarantee.
  for (NodeId u = 0; u < 5; ++u) {
    const auto& sender = probe_at(net, u);
    ASSERT_EQ(sender.acks.size(), 3u);
    for (NodeId v = 0; v < 5; ++v) {
      if (v == u) continue;
      const auto& receiver = probe_at(net, v);
      for (const auto& r : receiver.receives) {
        if (r.sender != u) continue;
        EXPECT_LE(r.time, sender.acks[r.seq]);
      }
    }
  }
}

TEST(Engine, EveryNeighborReceivesEveryBroadcast) {
  const auto g = net::make_ring(6);
  UniformRandomScheduler sched(7, 123);
  Network net(g, probe_factory(4), sched);
  net.run(StopWhen::kQuiescent, 10000);
  for (NodeId u = 0; u < 6; ++u) {
    std::size_t from_neighbors = 0;
    for (const auto& r : probe_at(net, u).receives) {
      EXPECT_TRUE(g.has_edge(u, r.sender));
      ++from_neighbors;
    }
    // 2 neighbors x 4 broadcasts each.
    EXPECT_EQ(from_neighbors, 8u);
  }
}

TEST(Engine, BusyBroadcastDiscarded) {
  const auto g = net::make_clique(2);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(1, false, /*double_broadcast=*/true), sched);
  net.run(StopWhen::kQuiescent, 100);
  EXPECT_EQ(net.stats().dropped_busy, 2u);  // one per node
  EXPECT_EQ(net.stats().broadcasts, 2u);
  // Each node received exactly one message.
  EXPECT_EQ(probe_at(net, 0).receives.size(), 1u);
  EXPECT_EQ(probe_at(net, 1).receives.size(), 1u);
}

TEST(Engine, SameTickReceivesBeforeAcks) {
  const auto g = net::make_clique(3);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(2), sched);
  net.run(StopWhen::kQuiescent, 100);
  // With lock-step rounds, each node's callback order strictly alternates:
  // both receives of a round precede the round's ack.
  for (NodeId u = 0; u < 3; ++u) {
    const auto& order = probe_at(net, u).order;
    ASSERT_EQ(order.size(), 6u);  // (2 receives + 1 ack) x 2 rounds
    EXPECT_EQ(std::string(order.begin(), order.end()), "rrarra");
  }
}

TEST(Engine, StopsWhenAllDecided) {
  const auto g = net::make_clique(3);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(2, /*decide_when_done=*/true), sched);
  const auto result = net.run(StopWhen::kAllDecided, 1000);
  EXPECT_TRUE(result.condition_met);
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_TRUE(net.decision(u).decided);
    EXPECT_EQ(net.decision(u).value, 0);
    EXPECT_EQ(net.decision(u).time, 2u);
  }
}

TEST(Engine, MaxTimeHorizonRespected) {
  const auto g = net::make_clique(2);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(100), sched);
  const auto result = net.run(StopWhen::kQuiescent, 10);
  EXPECT_FALSE(result.condition_met);
  EXPECT_LE(net.now(), 10u);
  // Resume to completion.
  const auto result2 = net.run(StopWhen::kQuiescent, 100000);
  EXPECT_TRUE(result2.condition_met);
}

TEST(Engine, StatsCountBroadcastsAndDeliveries) {
  const auto g = net::make_line(4);  // 3 edges
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(2), sched);
  net.run(StopWhen::kQuiescent, 100);
  EXPECT_EQ(net.stats().broadcasts, 8u);   // 4 nodes x 2
  EXPECT_EQ(net.stats().deliveries, 12u);  // 2 per broadcast per edge-end
  EXPECT_EQ(net.stats().acks, 8u);
  EXPECT_EQ(net.stats().max_payload_bytes, 1u);
  EXPECT_EQ(net.stats().payload_bytes, 8u);
}

TEST(Engine, InFlightTracking) {
  const auto g = net::make_clique(3);
  SynchronousScheduler sched(10);
  Network net(g, probe_factory(1), sched);
  net.run(StopWhen::kQuiescent, 5);  // mid-flight: deliveries due at t=10
  EXPECT_EQ(net.in_flight_from(0), 2u);
  std::size_t copies = 0;
  net.for_each_in_flight(
      [&](NodeId, NodeId, const util::Buffer&) { ++copies; });
  EXPECT_EQ(copies, 6u);  // 3 broadcasts x 2 receivers
  net.run(StopWhen::kQuiescent, 1000);
  EXPECT_EQ(net.in_flight_from(0), 0u);
}

TEST(Engine, SingleNodeBroadcastAcksWithoutNeighbors) {
  const auto g = net::make_clique(1);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(2, /*decide_when_done=*/true), sched);
  const auto result = net.run(StopWhen::kAllDecided, 100);
  EXPECT_TRUE(result.condition_met);
  EXPECT_TRUE(net.decision(0).decided);
  EXPECT_TRUE(probe_at(net, 0).receives.empty());
  EXPECT_EQ(probe_at(net, 0).acks.size(), 2u);
}

TEST(Engine, PostEventHookRuns) {
  const auto g = net::make_clique(2);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(1), sched);
  std::size_t calls = 0;
  net.set_post_event_hook([&](Network&) { ++calls; });
  net.run(StopWhen::kQuiescent, 100);
  EXPECT_EQ(calls, 4u);  // 2 deliveries + 2 acks
}

TEST(Engine, PayloadContentDeliveredIntact) {
  const auto g = net::make_clique(2);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(3), sched);
  net.run(StopWhen::kQuiescent, 100);
  const auto& p0 = probe_at(net, 0);
  ASSERT_EQ(p0.receives.size(), 3u);
  EXPECT_EQ(p0.receives[0].seq, 0u);
  EXPECT_EQ(p0.receives[1].seq, 1u);
  EXPECT_EQ(p0.receives[2].seq, 2u);
}

}  // namespace
}  // namespace amac::mac
