// Property-based test suite for CalendarQueue: randomized push/pop
// interleavings (seeded util::Rng) checked step by step against a
// std::priority_queue oracle ordered by the same (t, kind, seq) contract.
//
// Coverage targets, each also hit by a dedicated deterministic test:
//   * wheel wrap-around (the cursor circles the power-of-two ring many
//     times over);
//   * overflow promotion (far-future events heap first, migrate into the
//     wheel when the cursor rebases onto them);
//   * heavy overflow traffic (a third of pushes far past a tiny wheel, and
//     horizons tens of thousands of ticks out: the wheel never grows, so
//     every one takes the heap and the rebase migration);
//   * the run-length fan-out path (push_run vs per-copy pushes, runs half
//     consumed beside a migration, discard_run);
//   * FIFO tie-break at equal timestamps (seq order within a kind, kind
//     lanes at one tick).
#include <gtest/gtest.h>

#include <queue>
#include <utility>
#include <vector>

#include "mac/calendar_queue.hpp"
#include "util/rng.hpp"

namespace amac::mac {
namespace {

using Oracle = std::priority_queue<Event, std::vector<Event>, EventAfter>;

void expect_same_event(const Event& got, const Event& want) {
  ASSERT_EQ(got.t, want.t);
  ASSERT_EQ(got.kind, want.kind);
  ASSERT_EQ(got.seq, want.seq);
}

/// Pops both queues until empty, demanding identical order.
void drain_and_compare(CalendarQueue& q, Oracle& ref) {
  while (!q.empty()) {
    ASSERT_FALSE(ref.empty());
    const Event got = q.pop();
    expect_same_event(got, ref.top());
    ref.pop();
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(q.size(), 0u);
}

/// One randomized interleaving trial. `far_chance` controls how often a
/// push lands beyond the wheel window (the overflow heap);
/// [far_lo, far_hi] is the horizon of those pushes.
void run_interleaving_trial(util::Rng& rng, Time horizon_hint,
                            double far_chance, Time far_lo, Time far_hi,
                            int steps) {
  CalendarQueue q(horizon_hint);
  const Time span = q.span();
  Oracle ref;
  std::uint64_t seq = 0;
  Time now = 0;
  const auto push_random = [&] {
    Event e;
    e.t = now + (rng.chance(far_chance) ? rng.uniform(far_lo, far_hi)
                                        : rng.uniform(0, 15));
    e.kind = static_cast<EventKind>(rng.uniform(0, 2));
    e.seq = seq++;
    e.node = static_cast<NodeId>(rng.uniform(0, 7));
    q.push(e);
    ref.push(e);
  };
  for (int i = 0; i < 8; ++i) push_random();
  for (int step = 0; step < steps; ++step) {
    if (!q.empty() && rng.chance(0.55)) {
      ASSERT_FALSE(ref.empty());
      const Time peek = q.next_time();
      const Event got = q.pop();
      ASSERT_EQ(got.t, peek);
      expect_same_event(got, ref.top());
      ref.pop();
      now = got.t;
    } else {
      push_random();
    }
  }
  drain_and_compare(q, ref);
  EXPECT_EQ(q.span(), span);  // the wheel never changes size
}

// --- randomized interleavings vs the oracle ------------------------------

TEST(CalendarQueueProperty, NearHorizonInterleavingsMatchOracle) {
  util::Rng rng(0xA11CE);
  for (int trial = 0; trial < 20; ++trial) {
    run_interleaving_trial(rng, rng.uniform(1, 12), 0.08, 3000, 9000, 2500);
  }
}

TEST(CalendarQueueProperty, FarHorizonsRebaseInOrder) {
  // Horizons tens of thousands of ticks past a 16-bucket wheel — the
  // regime a 4096-node soak's far timers live in. Far pushes land ~26k-31k
  // and 70k-90k ticks out; every one stays on the overflow heap until the
  // cursor rebases onto it, and pops in oracle order.
  util::Rng rng(0xCA11DA);
  CalendarQueue q(4);
  Oracle ref;
  std::uint64_t seq = 0;
  Time now = 0;
  for (int step = 0; step < 12000; ++step) {
    if (!q.empty() && rng.chance(0.5)) {
      const Event got = q.pop();
      expect_same_event(got, ref.top());
      ref.pop();
      now = got.t;
    } else {
      Event e;
      if (rng.chance(0.2)) {
        e.t = now + rng.uniform(26000, 31000);
      } else if (rng.chance(0.05)) {
        e.t = now + rng.uniform(70000, 90000);
      } else {
        e.t = now + rng.uniform(0, 7);
      }
      e.kind = static_cast<EventKind>(rng.uniform(0, 2));
      e.seq = seq++;
      q.push(e);
      ref.push(e);
    }
  }
  EXPECT_EQ(q.span(), 16u);
  EXPECT_GT(q.overflow_pushes(), 0u);
  drain_and_compare(q, ref);
}

TEST(CalendarQueueProperty, HeavyOverflowPressureMatchesOracle) {
  // 35% of pushes land ~2000-4000 ticks out against a tiny wheel: a steady
  // stream of heap pushes and rebase migrations, interleaved with pops.
  util::Rng rng(0xD15AB1E);
  for (int trial = 0; trial < 8; ++trial) {
    run_interleaving_trial(rng, 4, 0.35, 2000, 4000, 3000);
  }
}

TEST(CalendarQueueProperty, RunPushMatchesPerCopyPushes) {
  // Same stream pushed via push_run into one queue and copy by copy into
  // another: identical pop order, both match the oracle, and the two agree
  // on which copies took the wheel and which the overflow heap, and on the
  // peak size. Pops interleave with pushes, so runs are often half
  // consumed when the next push (or a migration) arrives.
  util::Rng rng(0xBA7C4);
  for (int trial = 0; trial < 10; ++trial) {
    CalendarQueue runs(8);
    CalendarQueue plain(8);
    Oracle ref;
    std::uint64_t seq = 0;
    Time now = 0;
    for (int step = 0; step < 1500; ++step) {
      if (!runs.empty() && rng.chance(0.45)) {
        const Event a = runs.pop();
        const Event b = plain.pop();
        expect_same_event(a, b);
        expect_same_event(a, ref.top());
        ASSERT_GE(a.run, 1u);
        ref.pop();
        now = a.t;
      } else {
        // A uniform fan-out: `count` copies sharing one tick and kind,
        // consecutive seq values. Beyond the window the run spills to the
        // overflow heap copy by copy.
        const std::size_t count = rng.uniform(1, 6);
        Event e;
        e.t = now + (rng.chance(0.1) ? rng.uniform(500, 900)
                                     : rng.uniform(0, 12));
        e.kind = static_cast<EventKind>(rng.uniform(0, 2));
        e.seq = seq;
        runs.push_run(e, count);
        for (std::size_t i = 0; i < count; ++i) {
          e.seq = seq++;
          plain.push(e);
          ref.push(e);
        }
      }
      ASSERT_EQ(runs.size(), plain.size());
    }
    while (!runs.empty()) {
      const Event a = runs.pop();
      const Event b = plain.pop();
      expect_same_event(a, b);
      expect_same_event(a, ref.top());
      ref.pop();
    }
    EXPECT_TRUE(plain.empty());
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(runs.wheel_pushes(), plain.wheel_pushes());
    EXPECT_EQ(runs.overflow_pushes(), plain.overflow_pushes());
    EXPECT_EQ(runs.peak_size(), plain.peak_size());
    EXPECT_GT(runs.batch_reservations(), 0u);
  }
}

// --- deterministic corner cases ------------------------------------------

/// Queues `count` deliver copies at tick `t` as one run taking the next
/// seqs, mirroring each copy into the oracle.
void push_run_at(CalendarQueue& q, Oracle& ref, std::uint64_t& seq, Time t,
                 std::size_t count) {
  Event e;
  e.t = t;
  e.seq = seq;
  q.push_run(e, count);
  for (std::size_t i = 0; i < count; ++i) {
    e.seq = seq++;
    ref.push(e);
  }
}

TEST(CalendarQueueProperty, RunBeyondTheWheelSpillsToOverflow) {
  // A 16-bucket wheel: a run at tick 5 is one in-wheel entry, a run at
  // tick 100 spills copy by copy to the overflow heap (no reservation
  // counted), and a zero-count run queues nothing.
  CalendarQueue q(4);
  ASSERT_EQ(q.span(), 16u);
  Oracle ref;
  std::uint64_t seq = 0;
  push_run_at(q, ref, seq, 5, 3);
  EXPECT_EQ(q.batch_reservations(), 1u);
  EXPECT_EQ(q.wheel_pushes(), 3u);
  push_run_at(q, ref, seq, 100, 4);
  EXPECT_EQ(q.batch_reservations(), 1u);
  EXPECT_EQ(q.overflow_pushes(), 4u);
  push_run_at(q, ref, seq, 7, 0);
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(q.batch_reservations(), 1u);
  EXPECT_EQ(q.size(), 7u);
  EXPECT_EQ(q.peak_size(), 7u);
  // The in-wheel run hands out its copies one per pop, each reporting the
  // copies its entry still held; spilled copies are single entries.
  for (const std::uint32_t left : {3u, 2u, 1u}) {
    const Event got = q.pop();
    expect_same_event(got, ref.top());
    ref.pop();
    EXPECT_EQ(got.run, left);
  }
  EXPECT_EQ(q.pop().run, 1u);
  ref.pop();
  drain_and_compare(q, ref);
}

TEST(CalendarQueueProperty, HalfConsumedRunBesideMigratedOlderCopy) {
  // A run half popped at the cursor tick while an overflow copy pushed
  // early at tick 20 waits on the heap. A newer run then lands in the wheel
  // at tick 20 (now within reach of the cursor), so when the cursor
  // rebases onto tick 20 the migrated older copy joins an occupied bucket
  // and must be inserted ahead of the newer run (the insert-by-seq path).
  CalendarQueue q(4);
  ASSERT_EQ(q.span(), 16u);
  Oracle ref;
  std::uint64_t seq = 0;
  Event early;
  early.t = 20;
  early.seq = seq++;  // 20 - 0 >= 16: overflow
  q.push(early);
  ref.push(early);
  push_run_at(q, ref, seq, 5, 4);  // seqs 1..4
  for (const std::uint64_t want : {1u, 2u}) {
    const Event got = q.pop();
    expect_same_event(got, ref.top());
    ref.pop();
    ASSERT_EQ(got.seq, want);
  }
  push_run_at(q, ref, seq, 20, 3);  // seqs 5..7; 20 - 5 < 16: wheel
  EXPECT_EQ(q.overflow_pushes(), 1u);
  EXPECT_EQ(q.batch_reservations(), 2u);
  EXPECT_EQ(q.size(), 2u + 1u + 3u);
  EXPECT_EQ(q.wheel_pushes(), 4u + 3u);
  // Remaining copies of the first run, then the migrated early copy, then
  // the second run.
  const std::pair<std::uint64_t, std::uint32_t> want[] = {
      {3, 2}, {4, 1}, {0, 1}, {5, 3}, {6, 2}, {7, 1}};
  for (const auto& [s, left] : want) {
    const Event got = q.pop();
    expect_same_event(got, ref.top());
    ref.pop();
    ASSERT_EQ(got.seq, s);
    EXPECT_EQ(got.run, left);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarQueueProperty, DiscardRunDropsCopiesAndRecyclesDrainedLanes) {
  CalendarQueue q(4);
  Oracle ref;
  std::uint64_t seq = 0;
  push_run_at(q, ref, seq, 3, 6);  // seqs 0..5
  Event ack;
  ack.t = 3;
  ack.kind = EventKind::kAck;
  ack.seq = seq++;  // seq 6, the tick's ack lane
  q.push(ack);
  push_run_at(q, ref, seq, 4, 3);  // seqs 7..9
  ASSERT_EQ(q.size(), 10u);
  EXPECT_EQ(q.spare_lane_count(), 0u);

  // Part of a run: the next pop continues right after the dropped copies.
  Event got = q.pop();
  EXPECT_EQ(got.seq, 0u);
  EXPECT_EQ(got.run, 6u);
  q.discard_run(2);  // seqs 1, 2
  EXPECT_EQ(q.size(), 7u);
  got = q.pop();
  EXPECT_EQ(got.seq, 3u);
  EXPECT_EQ(got.run, 3u);
  // The rest of a run: the deliver lane empties but the tick's ack keeps
  // the bucket occupied, so nothing is recycled yet.
  q.discard_run(2);  // seqs 4, 5
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.spare_lane_count(), 0u);
  EXPECT_EQ(q.next_time(), 3u);
  got = q.pop();
  EXPECT_EQ(got.kind, EventKind::kAck);
  EXPECT_EQ(got.seq, 6u);
  // Tick 3 drained by a pop: its deliver and ack lanes park as spares.
  EXPECT_EQ(q.spare_lane_count(), 2u);

  // A discard that drains its bucket recycles the lane the same way.
  got = q.pop();
  EXPECT_EQ(got.seq, 7u);
  q.discard_run(0);  // no-op
  EXPECT_EQ(q.size(), 2u);
  q.discard_run(2);  // seqs 8, 9
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.spare_lane_count(), 3u);
  // Counters stay in copy units; a discard never lowers the peak.
  EXPECT_EQ(q.peak_size(), 10u);
  EXPECT_EQ(q.wheel_pushes(), 10u);

  // The next occupied bucket adopts a parked lane, and the queue keeps
  // ordering correctly after the drained ticks.
  Oracle fresh;
  push_run_at(q, fresh, seq, 9, 2);
  EXPECT_EQ(q.spare_lane_count(), 2u);
  drain_and_compare(q, fresh);
}

TEST(CalendarQueueProperty, WheelWrapAroundManyRevolutions) {
  // A 16-bucket wheel (hint 4 => span 16) driven 4096 ticks forward: the
  // cursor wraps the ring hundreds of times; every tick's events pop in
  // push order.
  CalendarQueue q(4);
  Oracle ref;
  std::uint64_t seq = 0;
  for (Time now = 0; now < 4096; now += 3) {
    for (Time d = 1; d <= 5; ++d) {
      Event e;
      e.t = now + d;
      e.kind = EventKind::kDeliver;
      e.seq = seq++;
      q.push(e);
      ref.push(e);
    }
    // Drain everything due strictly before the next batch's base.
    while (!q.empty() && q.next_time() < now + 3) {
      const Event got = q.pop();
      expect_same_event(got, ref.top());
      ref.pop();
    }
  }
  drain_and_compare(q, ref);
  EXPECT_EQ(q.overflow_pushes(), 0u);  // everything stayed in-window
}

TEST(CalendarQueueProperty, OverflowPromotionPreservesSeqInterleave) {
  // Far events pushed early (low seq) must, after migrating into the
  // wheel, pop BEFORE same-tick same-kind events pushed later (higher
  // seq): the migration insert-by-seq path.
  CalendarQueue q(4);  // span 16
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) {
    Event e;
    e.t = 1000;
    e.kind = EventKind::kDeliver;
    e.seq = seq++;  // seqs 0..4 into the overflow heap
    q.push(e);
  }
  Event near;
  near.t = 2;
  near.kind = EventKind::kDeliver;
  near.seq = seq++;
  q.push(near);
  EXPECT_EQ(q.pop().t, 2u);
  // Cursor rebases onto t=1000; now push MORE events at the same tick.
  EXPECT_EQ(q.next_time(), 1000u);
  for (int i = 0; i < 3; ++i) {
    Event e;
    e.t = 1000;
    e.kind = EventKind::kDeliver;
    e.seq = seq++;  // seqs 6..8, appended to the already-migrated bucket
    q.push(e);
  }
  for (std::uint64_t want : {0u, 1u, 2u, 3u, 4u, 6u, 7u, 8u}) {
    ASSERT_EQ(q.pop().seq, want);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueProperty, FifoTieBreakAtEqualTimestamps) {
  // One tick, all three kinds interleaved in push order: pops must give
  // deliveries, then acks, then crashes, each in FIFO (seq) order.
  CalendarQueue q(8);
  std::uint64_t seq = 0;
  const EventKind pattern[] = {EventKind::kAck,     EventKind::kDeliver,
                               EventKind::kCrash,   EventKind::kDeliver,
                               EventKind::kAck,     EventKind::kDeliver,
                               EventKind::kCrash,   EventKind::kAck};
  for (const EventKind k : pattern) {
    Event e;
    e.t = 5;
    e.kind = k;
    e.seq = seq++;
    q.push(e);
  }
  const std::pair<EventKind, std::uint64_t> want[] = {
      {EventKind::kDeliver, 1}, {EventKind::kDeliver, 3},
      {EventKind::kDeliver, 5}, {EventKind::kAck, 0},
      {EventKind::kAck, 4},     {EventKind::kAck, 7},
      {EventKind::kCrash, 2},   {EventKind::kCrash, 6},
  };
  for (const auto& [kind, s] : want) {
    const Event got = q.pop();
    ASSERT_EQ(got.kind, kind);
    ASSERT_EQ(got.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueProperty, WheelAndOverflowEventsPopExactlyOnce) {
  // Fill the wheel AND the overflow heap (far deliveries and acks sharing
  // ticks), then drain: each event pops exactly once in (t, kind, seq)
  // order.
  CalendarQueue q(2);  // span 8
  Oracle ref;
  std::uint64_t seq = 0;
  const auto push_at = [&](Time t, EventKind k) {
    Event e;
    e.t = t;
    e.kind = k;
    e.seq = seq++;
    q.push(e);
    ref.push(e);
  };
  for (Time t = 1; t <= 7; ++t) push_at(t, EventKind::kDeliver);  // in-wheel
  for (int i = 0; i < 40; ++i) {  // far: the overflow heap
    push_at(100 + static_cast<Time>(i), EventKind::kDeliver);
    push_at(100 + static_cast<Time>(i), EventKind::kAck);
  }
  EXPECT_EQ(q.overflow_pushes(), 80u);
  EXPECT_EQ(q.size(), 7u + 80u);
  drain_and_compare(q, ref);
}

TEST(CalendarQueueProperty, SentinelHorizonsStayOnOverflowHeap) {
  // kForever-style sentinels (crash plans that never fire) live on the
  // heap, and popping them rebases the cursor next to kForever without
  // wrapping the window test.
  CalendarQueue q(4);
  Oracle ref;
  std::uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) {
    Event e;
    e.t = kForever - static_cast<Time>(i);
    e.kind = EventKind::kCrash;
    e.seq = seq++;
    q.push(e);
    ref.push(e);
  }
  EXPECT_EQ(q.overflow_pushes(), 100u);
  drain_and_compare(q, ref);
}

}  // namespace
}  // namespace amac::mac
