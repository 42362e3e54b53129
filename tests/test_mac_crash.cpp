#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mac/engine.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"

namespace amac::mac {
namespace {

using testutil::probe_at;
using testutil::probe_factory;

TEST(Crash, MidBroadcastPartialDelivery) {
  // Line 0-1-2. Node 1's broadcast reaches 0 at t=1 and would reach 2 at
  // t=5; node 1 crashes at t=2: broadcast is non-atomic, so 0 received and
  // 2 never will.
  const auto g = net::make_line(3);
  ScriptedScheduler sched;
  sched.script(1, 0, /*ack=*/5, {{0, 1}, {2, 5}});
  Network net(g, probe_factory(1), sched);
  net.schedule_crash(CrashPlan{1, 2});
  net.run(StopWhen::kQuiescent, 100);

  EXPECT_TRUE(net.crashed(1));
  std::size_t from_1_at_0 = 0;
  for (const auto& r : probe_at(net, 0).receives) {
    if (r.sender == 1) ++from_1_at_0;
  }
  std::size_t from_1_at_2 = 0;
  for (const auto& r : probe_at(net, 2).receives) {
    if (r.sender == 1) ++from_1_at_2;
  }
  EXPECT_EQ(from_1_at_0, 1u);
  EXPECT_EQ(from_1_at_2, 0u);
}

TEST(Crash, CrashedNodeGetsNoCallbacks) {
  const auto g = net::make_clique(3);
  SynchronousScheduler sched(10);
  Network net(g, probe_factory(5), sched);
  net.schedule_crash(CrashPlan{0, 3});
  net.run(StopWhen::kQuiescent, 10000);
  // Node 0 broadcast at t=0 with ack due at t=10 > crash at 3: no acks,
  // no receives ever recorded.
  EXPECT_TRUE(probe_at(net, 0).acks.empty());
  EXPECT_TRUE(probe_at(net, 0).receives.empty());
}

TEST(Crash, DeliveriesToCrashedNodeDropped) {
  const auto g = net::make_clique(2);
  SynchronousScheduler sched(10);
  Network net(g, probe_factory(1), sched);
  net.schedule_crash(CrashPlan{1, 5});
  net.run(StopWhen::kQuiescent, 1000);
  // Node 0's broadcast arrives at t=10, after node 1 crashed at 5.
  EXPECT_TRUE(probe_at(net, 1).receives.empty());
  // Node 0 still gets its ack (the MAC layer only guarantees delivery to
  // non-faulty neighbors).
  EXPECT_EQ(probe_at(net, 0).acks.size(), 1u);
}

TEST(Crash, DeliveryAtCrashTickStillHappens) {
  const auto g = net::make_clique(2);
  ScriptedScheduler sched;
  sched.script(0, 0, 5, {{1, 5}});
  Network net(g, probe_factory(1), sched);
  net.schedule_crash(CrashPlan{1, 5});  // crash processed after deliveries
  net.run(StopWhen::kQuiescent, 100);
  EXPECT_EQ(probe_at(net, 1).receives.size(), 1u);
}

TEST(Crash, AllAliveDecidedIgnoresCrashed) {
  const auto g = net::make_clique(3);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(2, /*decide_when_done=*/true), sched);
  net.schedule_crash(CrashPlan{2, 1});
  const auto result = net.run(StopWhen::kAllDecided, 1000);
  EXPECT_TRUE(result.condition_met);
  EXPECT_TRUE(net.decision(0).decided);
  EXPECT_TRUE(net.decision(1).decided);
  EXPECT_FALSE(net.decision(2).decided);
}

TEST(Crash, CrashBeforeStartSilencesNode) {
  const auto g = net::make_clique(2);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(3), sched);
  net.schedule_crash(CrashPlan{0, 0});
  net.run(StopWhen::kQuiescent, 100);
  // Node 0 broadcast at t=0 (before the crash event processes at tick 0 is
  // ordered after deliveries/acks of tick 0 — but its deliveries land at
  // t=1 > crash time, so they are cancelled).
  std::size_t from_0 = 0;
  for (const auto& r : probe_at(net, 1).receives) {
    if (r.sender == 0) ++from_0;
  }
  EXPECT_EQ(from_0, 0u);
}

}  // namespace
}  // namespace amac::mac
