#include "mac/schedulers.hpp"

#include <gtest/gtest.h>

namespace amac::mac {
namespace {

const std::vector<NodeId> kNeighbors{1, 2, 3};

void expect_within_contract(const BroadcastSchedule& s, Time fack) {
  EXPECT_GE(s.ack_delay, 1u);
  EXPECT_LE(s.ack_delay, fack);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s.delay(i), 1u);
    EXPECT_LE(s.delay(i), s.ack_delay);
  }
}

/// The delays of `s` as a flat vector (uniform or per-receiver form).
std::vector<Time> all_delays(const BroadcastSchedule& s) {
  std::vector<Time> out;
  for (std::size_t i = 0; i < s.size(); ++i) out.push_back(s.delay(i));
  return out;
}

TEST(Schedulers, SynchronousLockstep) {
  SynchronousScheduler sched(5);
  const auto s = sched.make_schedule(0, 10, kNeighbors);
  EXPECT_EQ(s.ack_delay, 5u);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.receivers, kNeighbors);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.delay(i), 5u);
  EXPECT_EQ(sched.fack(), 5u);
}

TEST(Schedulers, SynchronousEmitsDenseUniformForm) {
  // The SoA fast path: lock-step schedulers fill receivers[] plus one
  // shared delay, no per-receiver delay array.
  SynchronousScheduler sched(3);
  const auto s = sched.make_schedule(0, 0, kNeighbors);
  EXPECT_TRUE(s.uniform);
  EXPECT_EQ(s.uniform_delay, 3u);
  EXPECT_TRUE(s.delays.empty());
  EXPECT_EQ(s.receivers, kNeighbors);
}

TEST(Schedulers, UniformRandomWithinContract) {
  UniformRandomScheduler sched(16, 42);
  for (int i = 0; i < 200; ++i) {
    const auto s = sched.make_schedule(0, i, kNeighbors);
    expect_within_contract(s, 16);
    ASSERT_EQ(s.size(), kNeighbors.size());
    ASSERT_EQ(s.delays.size(), s.receivers.size());  // parallel arrays
  }
}

TEST(Schedulers, UniformRandomDeterministicPerSeed) {
  UniformRandomScheduler a(16, 7);
  UniformRandomScheduler b(16, 7);
  for (int i = 0; i < 50; ++i) {
    const auto sa = a.make_schedule(0, i, kNeighbors);
    const auto sb = b.make_schedule(0, i, kNeighbors);
    EXPECT_EQ(sa.ack_delay, sb.ack_delay);
    EXPECT_EQ(sa.receivers, sb.receivers);
    EXPECT_EQ(all_delays(sa), all_delays(sb));
  }
}

TEST(Schedulers, SkewedStablePerEdge) {
  SkewedScheduler sched(9, 3);
  const auto s1 = sched.make_schedule(0, 0, kNeighbors);
  const auto s2 = sched.make_schedule(0, 55, kNeighbors);
  EXPECT_EQ(s1.receivers, s2.receivers);
  EXPECT_EQ(all_delays(s1), all_delays(s2));
  expect_within_contract(s1, 9);
}

TEST(Schedulers, SkewedVariesAcrossEdges) {
  SkewedScheduler sched(64, 12);
  std::vector<NodeId> many;
  for (NodeId v = 1; v <= 32; ++v) many.push_back(v);
  const auto s = sched.make_schedule(0, 0, many);
  Time lo = 64;
  Time hi = 1;
  for (std::size_t i = 0; i < s.size(); ++i) {
    lo = std::min(lo, s.delay(i));
    hi = std::max(hi, s.delay(i));
  }
  EXPECT_LT(lo, hi);
}

TEST(Schedulers, HoldbackDelaysHeldSender) {
  auto base = std::make_unique<SynchronousScheduler>(1);
  HoldbackScheduler sched(std::move(base), /*release=*/50);
  sched.hold_sender(0);
  const auto s = sched.make_schedule(0, 10, kNeighbors);
  EXPECT_FALSE(s.uniform);  // holds densified the schedule to adjust it
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(10 + s.delay(i), 50u);
  EXPECT_GE(s.ack_delay, 40u);  // ack after held deliveries
}

TEST(Schedulers, HoldbackLeavesOthersSynchronous) {
  auto base = std::make_unique<SynchronousScheduler>(1);
  HoldbackScheduler sched(std::move(base), 50);
  sched.hold_sender(0);
  const auto s = sched.make_schedule(5, 10, kNeighbors);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.delay(i), 1u);
  EXPECT_EQ(s.ack_delay, 1u);
}

TEST(Schedulers, HoldbackPreservesUniformFastPathWhenNoHoldApplies) {
  // No hold names this sender: the base's dense uniform schedule must pass
  // through untouched (the engine's batch fan-out depends on it).
  auto base = std::make_unique<SynchronousScheduler>(2);
  HoldbackScheduler sched(std::move(base), 50);
  sched.hold_sender(7);
  const auto s = sched.make_schedule(0, 0, kNeighbors);
  EXPECT_TRUE(s.uniform);
  EXPECT_EQ(s.uniform_delay, 2u);
  EXPECT_EQ(s.ack_delay, 2u);
}

TEST(Schedulers, HoldbackRestoresUniformFastPathAfterRelease) {
  // Expired holds (release <= now + 1 can never move a delay >= 1) must
  // not densify: once every hold for a sender has released, the engine's
  // batch fan-out re-engages for the rest of the run.
  auto base = std::make_unique<SynchronousScheduler>(1);
  HoldbackScheduler sched(std::move(base), /*release=*/20);
  sched.hold_sender(0);
  EXPECT_FALSE(sched.make_schedule(0, 10, kNeighbors).uniform);  // live hold
  const auto after = sched.make_schedule(0, /*now=*/30, kNeighbors);
  EXPECT_TRUE(after.uniform);
  EXPECT_EQ(after.uniform_delay, 1u);
}

TEST(Schedulers, HoldbackNoEffectAfterRelease) {
  auto base = std::make_unique<SynchronousScheduler>(1);
  HoldbackScheduler sched(std::move(base), 20);
  sched.hold_sender(0);
  const auto s = sched.make_schedule(0, /*now=*/30, kNeighbors);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.delay(i), 1u);
}

TEST(Schedulers, HoldbackReleaseBoundaryAtNowPlusOneKeepsFastPath) {
  // The exact boundary: delays are >= 1, so a delivery never lands before
  // now + 1 and a hold releasing AT now + 1 is already satisfied. It must
  // not stretch any delay — and it must not densify either, so the base's
  // dense uniform form (the engine's batch fan-out) passes through.
  auto base = std::make_unique<SynchronousScheduler>(1);
  HoldbackScheduler sched(std::move(base), /*release=*/11);
  sched.hold_sender(0);
  const auto s = sched.make_schedule(0, /*now=*/10, kNeighbors);  // 11==now+1
  EXPECT_TRUE(s.uniform);
  EXPECT_EQ(s.uniform_delay, 1u);
  EXPECT_EQ(s.ack_delay, 1u);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.delay(i), 1u);
}

TEST(Schedulers, HoldbackReleaseBoundaryOneTickLaterStretches) {
  // One tick past the boundary (release == now + 2): delay-1 deliveries
  // must be stretched to land exactly AT the release tick, never later.
  auto base = std::make_unique<SynchronousScheduler>(1);
  HoldbackScheduler sched(std::move(base), /*release=*/12);
  sched.hold_sender(0);
  const auto s = sched.make_schedule(0, /*now=*/10, kNeighbors);  // 12==now+2
  EXPECT_FALSE(s.uniform);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.delay(i), 2u);
  EXPECT_EQ(s.ack_delay, 2u);
}

TEST(Schedulers, HoldbackDeliveryAlreadyPastReleaseIsNotStretched) {
  // A live hold must stretch only the deliveries that would land BEFORE
  // the release; a base delay that already reaches it stays untouched.
  auto base = std::make_unique<SynchronousScheduler>(7);
  HoldbackScheduler sched(std::move(base), /*release=*/7);
  sched.hold_sender(0);
  const auto s = sched.make_schedule(0, /*now=*/0, kNeighbors);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.delay(i), 7u);
  EXPECT_EQ(s.ack_delay, 7u);
}

TEST(Schedulers, HoldbackFackTracksLatestRelease) {
  auto base = std::make_unique<SynchronousScheduler>(3);
  HoldbackScheduler sched(std::move(base), /*release=*/20);
  EXPECT_EQ(sched.fack(), 23u);  // release + base fack
  sched.hold_sender_until(1, 100);
  EXPECT_EQ(sched.fack(), 103u);  // a later hold raises the bound
  sched.hold_sender(0);           // release 20: does not raise the max
  EXPECT_EQ(sched.fack(), 103u);
  sched.hold_sender_until(2, 500);
  EXPECT_EQ(sched.fack(), 503u);
  EXPECT_EQ(sched.fack(), 503u);  // stable on repeated queries
}

TEST(Schedulers, ScratchScheduleReusesCapacity) {
  UniformRandomScheduler sched(5, 8);
  BroadcastSchedule scratch;
  sched.schedule(0, 0, kNeighbors, scratch);
  ASSERT_EQ(scratch.size(), kNeighbors.size());
  const auto receiver_capacity = scratch.receivers.capacity();
  const auto delay_capacity = scratch.delays.capacity();
  const auto* receiver_data = scratch.receivers.data();
  const auto* delay_data = scratch.delays.data();
  for (int i = 0; i < 100; ++i) {
    sched.schedule(0, i, kNeighbors, scratch);
    ASSERT_EQ(scratch.size(), kNeighbors.size());
  }
  EXPECT_EQ(scratch.receivers.capacity(), receiver_capacity);
  EXPECT_EQ(scratch.receivers.data(), receiver_data);
  EXPECT_EQ(scratch.delays.capacity(), delay_capacity);
  EXPECT_EQ(scratch.delays.data(), delay_data);
}

TEST(Schedulers, ScratchAlternatesUniformAndDenseFormsCleanly) {
  // One scratch cycling between a uniform-form scheduler and a
  // per-receiver one must not leak state across calls.
  SynchronousScheduler sync(4);
  SkewedScheduler skewed(9, 3);
  BroadcastSchedule scratch;
  for (int i = 0; i < 3; ++i) {
    sync.schedule(0, 0, kNeighbors, scratch);
    EXPECT_TRUE(scratch.uniform);
    EXPECT_TRUE(scratch.delays.empty());
    skewed.schedule(0, 0, kNeighbors, scratch);
    EXPECT_FALSE(scratch.uniform);
    ASSERT_EQ(scratch.delays.size(), kNeighbors.size());
  }
}

TEST(Schedulers, ScriptedExactDelays) {
  ScriptedScheduler sched;
  sched.script(0, 0, /*ack=*/5, {{1, 2}, {2, 5}});
  const auto s = sched.make_schedule(0, 0, kNeighbors);
  EXPECT_EQ(s.ack_delay, 5u);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.receivers[i] == 1) {
      EXPECT_EQ(s.delay(i), 2u);
    }
    if (s.receivers[i] == 2) {
      EXPECT_EQ(s.delay(i), 5u);
    }
    if (s.receivers[i] == 3) {
      EXPECT_EQ(s.delay(i), 1u);  // unlisted receivers default to 1
    }
  }
}

TEST(Schedulers, ScriptedFallbackSynchronous) {
  ScriptedScheduler sched;
  sched.script(0, 1, 9, {{1, 9}});
  // Broadcast 0 of node 0 is unscripted -> synchronous round of 1.
  const auto s0 = sched.make_schedule(0, 0, kNeighbors);
  EXPECT_EQ(s0.ack_delay, 1u);
  EXPECT_TRUE(s0.uniform);
  // Broadcast 1 uses the script.
  const auto s1 = sched.make_schedule(0, 0, kNeighbors);
  EXPECT_EQ(s1.ack_delay, 9u);
}

TEST(Schedulers, ScriptedPerSenderCounters) {
  ScriptedScheduler sched;
  sched.script(1, 0, 4, {{0, 4}});
  const auto s0 = sched.make_schedule(0, 0, {1});  // node 0, unscripted
  EXPECT_EQ(s0.ack_delay, 1u);
  const auto s1 = sched.make_schedule(1, 0, {0});  // node 1 broadcast 0: scripted
  EXPECT_EQ(s1.ack_delay, 4u);
}

TEST(Schedulers, ScriptedUniformSlotIsDenseUniform) {
  // script_uniform emits the dense uniform schedule form (shared delay),
  // so scripted timelines fan out via the engine's batch bucket path.
  ScriptedScheduler sched;
  sched.script_uniform(0, 0, /*ack=*/7, /*recv=*/3);
  const auto s = sched.make_schedule(0, 0, kNeighbors);
  EXPECT_EQ(s.ack_delay, 7u);
  EXPECT_TRUE(s.uniform);
  ASSERT_EQ(s.size(), 3u);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.delay(i), 3u);
  EXPECT_EQ(sched.fack(), 7u);
  expect_within_contract(s, sched.fack());
}

TEST(Schedulers, ScriptCanonicalizationRules) {
  // Every rule of canonicalize_script on one messy list for a 4-node
  // graph: the canonical vector is what the scheduler replays.
  std::vector<ScriptSlot> slots{
      {9, 0, 5, 1, {}},                                // sender not a node
      {0, 0, 0, 3, {}},                                // ack 0, recv > ack
      {1, 2, 4, 1, {{3, 9}, {7, 1}, {2, 0}, {3, 2}}},  // messy receivers
      {2, 1, 6, 4, {{8, 3}}},                          // no receiver left
      {0, 0, 3, 2, {}},                                // duplicate of slot 2
  };
  EXPECT_EQ(canonicalize_script(slots, 4), 6u);  // largest ack kept
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_EQ(slots[0].ack, 1u);
  EXPECT_EQ(slots[0].recv, 1u);
  // Receiver 7 dropped, 2's delay clamped up to 1, 3 listed twice keeps
  // its later delay (not the larger), sorted; recv is the largest left.
  EXPECT_EQ(slots[1].delays,
            (std::vector<std::pair<NodeId, Time>>{{2, 1}, {3, 2}}));
  EXPECT_EQ(slots[1].recv, 2u);
  // Listed receivers, none left: the uniform slot unlisted receivers get.
  EXPECT_TRUE(slots[2].delays.empty());
  EXPECT_EQ(slots[2].recv, 1u);
  EXPECT_EQ(slots[3].ack, 3u);  // duplicates stay in the vector

  // An empty list keeps the synchronous fallback's bound.
  std::vector<ScriptSlot> none;
  EXPECT_EQ(canonicalize_script(none, 4), 1u);
}

TEST(Schedulers, ScriptedSchedulerReplaysCanonicalSlots) {
  // Built from raw slots, the scheduler replays their canonical form: the
  // later duplicate wins, broadcasts are counted per sender, and fack() is
  // canonicalize_script's bound (the overridden slot's ack included).
  ScriptedScheduler sched(
      {{2, 1, 9, 4, {}},
       {0, 0, 5, 1, {{2, 5}, {1, 2}, {6, 3}}},
       {0, 1, 8, 8, {}},
       {0, 1, 6, 6, {}},
       {7, 0, 30, 1, {}}},
      /*node_count=*/4);
  EXPECT_EQ(sched.fack(), 9u);

  const auto s0 = sched.make_schedule(0, 0, kNeighbors);
  EXPECT_FALSE(s0.uniform);
  EXPECT_EQ(s0.ack_delay, 5u);
  EXPECT_EQ(all_delays(s0), (std::vector<Time>{2, 5, 1}));  // 3 unlisted
  const auto s1 = sched.make_schedule(0, 1, kNeighbors);
  EXPECT_TRUE(s1.uniform);
  EXPECT_EQ(s1.ack_delay, 6u);
  EXPECT_EQ(s1.uniform_delay, 6u);
  const auto s2 = sched.make_schedule(0, 2, kNeighbors);  // unscripted
  EXPECT_TRUE(s2.uniform);
  EXPECT_EQ(s2.ack_delay, 1u);

  // Node 2's broadcast 0 is unscripted; its broadcast 1 is the slot.
  EXPECT_EQ(sched.make_schedule(2, 0, kNeighbors).ack_delay, 1u);
  const auto t1 = sched.make_schedule(2, 1, kNeighbors);
  EXPECT_EQ(t1.ack_delay, 9u);
  EXPECT_EQ(t1.uniform_delay, 4u);
}

TEST(Schedulers, ScriptedUniformSlotOverwriteIsLaterWins) {
  // Re-scripting the same (sender, index) replaces the slot — the
  // deterministic resolution the fuzz builder relies on for duplicate
  // spec slots.
  ScriptedScheduler sched;
  sched.script_uniform(0, 0, 4, 2);
  sched.script_uniform(0, 0, 8, 5);
  const auto s = sched.make_schedule(0, 0, kNeighbors);
  EXPECT_EQ(s.ack_delay, 8u);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s.delay(i), 5u);
}

}  // namespace
}  // namespace amac::mac
