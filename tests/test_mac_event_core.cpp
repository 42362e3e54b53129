// Event-core equivalence and allocation tests for the calendar-queue
// engine (PR: calendar-queue event core).
//
//   * CalendarQueue vs a (t, kind, seq) binary heap: identical pop order on
//     randomized workloads, including far-future overflow-heap traffic.
//   * Network (calendar) vs ReferenceNetwork (frozen heap engine): same
//     trace digest, stats, decisions, and crash outcomes across schedulers,
//     topologies, crash plans, link-fault plans, and the unreliable
//     overlay.
//   * Determinism: same seed => bit-identical digests run-to-run.
//   * Flight-slot reuse, and payload lifetime while the flight table grows
//     inside a callback.
//   * Zero heap allocations in the steady-state broadcast->deliver->ack
//     cycle (global operator new instrumented in this binary).
#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <type_traits>

#include "alloc_hook.hpp"
#include "helpers.hpp"
#include "mac/calendar_queue.hpp"
#include "mac/engine.hpp"
#include "mac/reference_engine.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "util/rng.hpp"

namespace amac::mac {
namespace {

using testutil::probe_factory;

// --- CalendarQueue vs reference heap, randomized ------------------------

TEST(CalendarQueue, MatchesReferenceHeapPopOrder) {
  util::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 25; ++trial) {
    CalendarQueue q(rng.uniform(1, 12));
    std::priority_queue<Event, std::vector<Event>, EventAfter> ref;
    std::uint64_t seq = 0;
    Time now = 0;
    const auto push_random = [&] {
      Event e;
      // 10% far-future pushes exercise the overflow heap, whose copies
      // later share ticks with newer wheel pushes.
      e.t = now + (rng.chance(0.1) ? rng.uniform(3000, 9000)
                                   : rng.uniform(0, 15));
      e.kind = static_cast<EventKind>(rng.uniform(0, 2));
      e.seq = seq++;
      e.node = static_cast<NodeId>(rng.uniform(0, 7));
      q.push(e);
      ref.push(e);
    };
    for (int i = 0; i < 8; ++i) push_random();
    for (int step = 0; step < 3000; ++step) {
      if (!q.empty() && rng.chance(0.55)) {
        ASSERT_FALSE(ref.empty());
        const Time peek = q.next_time();
        const Event a = q.pop();
        const Event b = ref.top();
        ref.pop();
        ASSERT_EQ(a.t, peek);
        ASSERT_EQ(a.t, b.t);
        ASSERT_EQ(a.kind, b.kind);
        ASSERT_EQ(a.seq, b.seq);
        now = a.t;
      } else {
        push_random();
      }
    }
    while (!q.empty()) {
      const Event a = q.pop();
      const Event b = ref.top();
      ref.pop();
      ASSERT_EQ(a.t, b.t);
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(a.seq, b.seq);
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(CalendarQueue, SentinelTimesNearForeverDoNotWrap) {
  // Regression: the window checks must not compute base_ + span()
  // (wraps for t near kForever, stranding events in the overflow heap).
  CalendarQueue q(8);
  Event never;
  never.t = kForever;
  never.kind = EventKind::kCrash;
  never.seq = 0;
  q.push(never);
  Event soon;
  soon.t = 3;
  soon.seq = 1;
  q.push(soon);
  EXPECT_EQ(q.next_time(), 3u);
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.next_time(), kForever);
  EXPECT_EQ(q.pop().t, kForever);
  EXPECT_TRUE(q.empty());
}

// --- engine-level differential tests ------------------------------------

struct RunRecord {
  std::uint64_t trace = 0;
  EngineStats stats;
  std::vector<Decision> decisions;
  std::vector<bool> crashed;
  Time end_time = 0;
  bool condition_met = false;
};

void expect_equal(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.stats.broadcasts, b.stats.broadcasts);
  EXPECT_EQ(a.stats.dropped_busy, b.stats.dropped_busy);
  EXPECT_EQ(a.stats.deliveries, b.stats.deliveries);
  EXPECT_EQ(a.stats.acks, b.stats.acks);
  EXPECT_EQ(a.stats.payload_bytes, b.stats.payload_bytes);
  EXPECT_EQ(a.stats.max_payload_bytes, b.stats.max_payload_bytes);
  EXPECT_EQ(a.stats.peak_events, b.stats.peak_events);
  EXPECT_EQ(a.stats.drops, b.stats.drops);
  EXPECT_EQ(a.stats.duplicates, b.stats.duplicates);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.condition_met, b.condition_met);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t u = 0; u < a.decisions.size(); ++u) {
    EXPECT_EQ(a.decisions[u].decided, b.decisions[u].decided);
    EXPECT_EQ(a.decisions[u].value, b.decisions[u].value);
    EXPECT_EQ(a.decisions[u].time, b.decisions[u].time);
    EXPECT_EQ(a.crashed[u], b.crashed[u]);
  }
}

template <typename Net>
RunRecord run_traced(const net::Graph& g, const ProcessFactory& factory,
                     Scheduler& sched, const std::vector<CrashPlan>& crashes,
                     StopWhen until, Time horizon,
                     const net::Graph* overlay = nullptr,
                     const std::function<void()>& post_construct = {},
                     const LinkFaultPlan* faults = nullptr) {
  Net net(g, factory, sched, overlay);
  net.enable_trace_digest();
  for (const auto& plan : crashes) net.schedule_crash(plan);
  if (faults != nullptr) net.set_link_faults(*faults);
  // E.g. scheduler mutations that must not influence construction-time
  // decisions like calendar-wheel sizing (late holdback holds).
  if (post_construct) post_construct();
  const auto result = net.run(until, horizon);
  RunRecord rec;
  rec.trace = net.trace_digest();
  rec.stats = net.stats();
  rec.end_time = result.end_time;
  rec.condition_met = result.condition_met;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    rec.decisions.push_back(net.decision(u));
    rec.crashed.push_back(net.crashed(u));
  }
  return rec;
}

/// Runs the same workload on both engines with independently constructed
/// (identically seeded) schedulers and requires identical observations.
/// Returns the calendar engine's record for workload-shape assertions.
template <typename MakeScheduler>
RunRecord expect_engines_agree(const net::Graph& g,
                               const ProcessFactory& factory,
                               const MakeScheduler& make_scheduler,
                               const std::vector<CrashPlan>& crashes,
                               StopWhen until, Time horizon,
                               const net::Graph* overlay = nullptr,
                               const LinkFaultPlan* faults = nullptr) {
  auto sched_a = make_scheduler();
  auto sched_b = make_scheduler();
  const auto a = run_traced<Network>(g, factory, *sched_a, crashes, until,
                                     horizon, overlay, {}, faults);
  const auto b = run_traced<ReferenceNetwork>(g, factory, *sched_b, crashes,
                                              until, horizon, overlay, {},
                                              faults);
  expect_equal(a, b);
  EXPECT_GT(a.stats.deliveries, 0u);  // the workload must exercise traffic
  return a;
}

TEST(EngineDifferential, RandomSchedulerManySeeds) {
  const auto g = net::make_ring(12);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_engines_agree(
        g, probe_factory(6),
        [&] { return std::make_unique<UniformRandomScheduler>(9, seed); },
        {}, StopWhen::kQuiescent, 100000);
  }
}

TEST(EngineDifferential, SkewedCliqueWithDecisions) {
  const auto g = net::make_clique(8);
  expect_engines_agree(
      g, probe_factory(4, /*decide_when_done=*/true),
      [] { return std::make_unique<SkewedScheduler>(7, 99); }, {},
      StopWhen::kAllDecided, 100000);
}

TEST(EngineDifferential, ContentionGrid) {
  const auto g = net::make_grid(4, 4);
  expect_engines_agree(
      g, probe_factory(5),
      [] { return std::make_unique<ContentionScheduler>(3, 64, 17); }, {},
      StopWhen::kQuiescent, 100000);
}

TEST(EngineDifferential, CrashesMidBroadcast) {
  const auto g = net::make_line(9);
  const std::vector<CrashPlan> crashes{{2, 3}, {5, 7}, {7, 2}};
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    expect_engines_agree(
        g, probe_factory(8),
        [&] { return std::make_unique<UniformRandomScheduler>(6, seed); },
        crashes, StopWhen::kQuiescent, 100000);
  }
}

TEST(EngineDifferential, HoldbackFarFutureReleases) {
  // Releases far beyond the calendar wheel force the overflow heap, whose
  // copies pop beside same-tick wheel pushes; a far crash rides along.
  // Link 4 -> 5 is held back to the same release by a finite drop window.
  const auto g = net::make_ring(8);
  const std::vector<CrashPlan> crashes{{3, 6500}};
  LinkFaultPlan plan;
  plan.windows.push_back(DropWindow{4, 5, 0, 6000});
  const auto a = expect_engines_agree(
      g, probe_factory(3),
      [] {
        auto hold = std::make_unique<HoldbackScheduler>(
            std::make_unique<SynchronousScheduler>(1), /*release=*/6000);
        hold->hold_sender(0);
        return hold;
      },
      crashes, StopWhen::kQuiescent, 1000000, nullptr, &plan);
  EXPECT_GT(a.stats.overflow_pushes, 0u);
}

TEST(EngineDifferential, LateHoldsOverflowTheWheel) {
  // Holds registered AFTER Network construction: the calendar wheel was
  // sized from the pre-hold fack() (release 4 + sync 1 => a 16-bucket
  // wheel), so the release-deferred deliveries at t~7000 exceed the wheel
  // window and must ride the overflow heap — while staying bit-identical
  // to the reference heap engine, which never saw a wheel at all.
  const auto g = net::make_ring(8);
  const std::vector<CrashPlan> crashes{{5, 7100}};
  // Link 3 -> 4 is held back to the construction-time release (4) by a
  // finite drop window.
  LinkFaultPlan plan;
  plan.windows.push_back(DropWindow{3, 4, 0, 4});
  const auto run_one = [&](auto net_tag) {
    using Net = typename decltype(net_tag)::type;
    auto hold = std::make_unique<HoldbackScheduler>(
        std::make_unique<SynchronousScheduler>(1), /*release=*/4);
    return run_traced<Net>(
        g, probe_factory(3), *hold, crashes, StopWhen::kQuiescent, 1000000,
        nullptr, [&hold] { hold->hold_sender_until(1, 7000); }, &plan);
  };
  const auto a = run_one(std::type_identity<Network>{});
  const auto b = run_one(std::type_identity<ReferenceNetwork>{});
  expect_equal(a, b);
  EXPECT_GT(a.stats.deliveries, 0u);
  // The held deliveries really did land after the release tick (i.e. far
  // beyond the 16-bucket wheel sized at construction).
  EXPECT_GE(a.end_time, 7000u);
}

TEST(EngineDifferential, UnreliableOverlay) {
  const std::size_t n = 10;
  const auto g = net::make_ring(n);
  net::Graph overlay(n);
  for (NodeId u = 0; u + 2 < n; ++u) overlay.add_edge(u, u + 2);
  expect_engines_agree(
      g, probe_factory(5),
      [] {
        return std::make_unique<LossyScheduler>(
            std::make_unique<UniformRandomScheduler>(5, 21), 0.6, 77);
      },
      {}, StopWhen::kQuiescent, 100000, &overlay);
}

// --- link faults through every emission path ---------------------------

/// Rate drops, duplicates, and one finite outage window on the directed
/// link 0 -> 1, whose copies are deferred to tick 40. The duplicate rate is
/// high enough that deferred copies and duplicates share broadcasts, so
/// the order of those two emission groups shows in the trace.
LinkFaultPlan drop_dup_window_plan() {
  LinkFaultPlan plan;
  plan.seed = 0xFA017;
  plan.drop_rate_bp = 900;
  plan.dup_rate_bp = 2000;
  plan.windows.push_back(DropWindow{0, 1, 3, 40});
  return plan;
}

TEST(EngineDifferential, FaultedSynchronousCliqueUniformBatch) {
  // Synchronous rounds give uniform schedules, so the kept subset of each
  // fan-out is one push_run entry while deferred copies and duplicates take
  // per-event pushes behind it.
  const auto g = net::make_clique(8);
  const LinkFaultPlan plan = drop_dup_window_plan();
  const auto a = expect_engines_agree(
      g, probe_factory(6),
      [] { return std::make_unique<SynchronousScheduler>(2); }, {},
      StopWhen::kQuiescent, 100000, nullptr, &plan);
  EXPECT_GT(a.stats.drops, 0u);
  EXPECT_GT(a.stats.duplicates, 0u);
  EXPECT_GT(a.stats.batch_pushes, 0u);

  // The window alone: every drop it counts is a deferred, re-emitted copy.
  LinkFaultPlan window_only;
  window_only.windows = plan.windows;
  const auto w = expect_engines_agree(
      g, probe_factory(6),
      [] { return std::make_unique<SynchronousScheduler>(2); }, {},
      StopWhen::kQuiescent, 100000, nullptr, &window_only);
  EXPECT_GT(w.stats.drops, 0u);
  EXPECT_EQ(w.stats.deliveries, 8u * 6u * 7u);  // nothing lost for good
}

TEST(EngineDifferential, FaultedRandomRingPerReceiver) {
  // Per-receiver delays: kept copies are pushed one at a time.
  const auto g = net::make_ring(12);
  const LinkFaultPlan plan = drop_dup_window_plan();
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto a = expect_engines_agree(
        g, probe_factory(6),
        [&] { return std::make_unique<UniformRandomScheduler>(9, seed); }, {},
        StopWhen::kQuiescent, 100000, nullptr, &plan);
    drops += a.stats.drops;
    duplicates += a.stats.duplicates;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(duplicates, 0u);
}

TEST(EngineDifferential, LateScriptedUniformSlotSpillsPastTheWheel) {
  // The script is written after construction, so the wheel was sized from
  // the empty script's fack() = 1 (16 buckets). Sender 0's first broadcast
  // is one uniform fan-out landing at t = 200: push_run has to spill it
  // to the overflow heap. With the plan installed the spilled run is the
  // kept subset only.
  const auto g = net::make_clique(8);
  const LinkFaultPlan plan = drop_dup_window_plan();
  const std::vector<const LinkFaultPlan*> plans{nullptr, &plan};
  for (const LinkFaultPlan* faults : plans) {
    const auto run_one = [&](auto net_tag) {
      using Net = typename decltype(net_tag)::type;
      ScriptedScheduler sched;
      return run_traced<Net>(
          g, probe_factory(3), sched, {}, StopWhen::kQuiescent, 100000,
          nullptr, [&sched] { sched.script_uniform(0, 0, 250, 200); }, faults);
    };
    const auto a = run_one(std::type_identity<Network>{});
    const auto b = run_one(std::type_identity<ReferenceNetwork>{});
    expect_equal(a, b);
    EXPECT_GT(a.stats.deliveries, 0u);
    EXPECT_GT(a.stats.overflow_pushes, 0u);
    EXPECT_GE(a.end_time, 200u);
  }
}

// --- determinism ---------------------------------------------------------

TEST(EngineDeterminism, SameSeedSameDigest) {
  const auto g = net::make_ring(10);
  const auto once = [&] {
    UniformRandomScheduler sched(8, 4242);
    return run_traced<Network>(g, probe_factory(7), sched, {{4, 9}},
                               StopWhen::kQuiescent, 100000);
  };
  const auto a = once();
  const auto b = once();
  expect_equal(a, b);
  EXPECT_NE(a.trace, 0u);
}

TEST(EngineDeterminism, DifferentSeedDifferentDigest) {
  const auto g = net::make_ring(10);
  const auto once = [&](std::uint64_t seed) {
    UniformRandomScheduler sched(8, seed);
    return run_traced<Network>(g, probe_factory(7), sched, {},
                               StopWhen::kQuiescent, 100000);
  };
  EXPECT_NE(once(1).trace, once(2).trace);
}

// --- flight slots: reuse and payload lifetime ---------------------------

TEST(FlightSlots, EngineRecyclesSlotsAcrossBroadcasts) {
  // 3 nodes x 50 broadcasts each: at most one live flight per sender, so
  // the flight table should plateau at <= 3 slots and recycle for the rest.
  const auto g = net::make_clique(3);
  SynchronousScheduler sched(1);
  Network net(g, probe_factory(50), sched);
  net.run(StopWhen::kQuiescent, 100000);
  EXPECT_EQ(net.stats().broadcasts, 150u);
  EXPECT_LE(net.instance_stats(0).peak_pool_slots, 3u);
  // Every flight drained: every slot returned.
  EXPECT_EQ(net.instance_stats(0).live_pool_slots, 0u);
}

TEST(FlightSlots, HeldExactlyWhileInFlight) {
  const auto g = net::make_clique(3);
  SynchronousScheduler sched(10);
  Network net(g, probe_factory(1), sched);
  net.run(StopWhen::kQuiescent, 5);  // mid-flight: deliveries due at t=10
  EXPECT_EQ(net.instance_stats(0).live_pool_slots, 3u);
  EXPECT_EQ(net.in_flight_from(0), 2u);
  net.run(StopWhen::kQuiescent, 1000);
  EXPECT_EQ(net.instance_stats(0).live_pool_slots, 0u);
  EXPECT_EQ(net.in_flight_from(0), 0u);
}

/// Node 0 broadcasts `kOriginal` at start; every other node relays a
/// different payload from inside its first on_receive, then re-reads the
/// packet it is still handling.
class RelayInCallback final : public Process {
 public:
  static inline const util::Buffer kOriginal = util::Buffer(24, 0x5A);

  explicit RelayInCallback(NodeId id)
      : id_(id), relay_(40, static_cast<std::uint8_t>(id)) {}

  void on_start(Context& ctx) override {
    if (id_ == 0) ctx.broadcast(kOriginal);
  }
  void on_receive(const Packet& packet, Context& ctx) override {
    if (packet.sender != 0) return;
    ctx.broadcast(relay_);  // may grow the engine's flight table
    EXPECT_EQ(packet.payload, kOriginal) << "at node " << id_;
    ++intact_reads;
  }
  void on_ack(Context&) override {}
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<RelayInCallback>(*this);
  }
  void digest(util::Hasher& h) const override { h.mix_u64(id_); }

  std::size_t intact_reads = 0;

 private:
  NodeId id_;
  util::Buffer relay_;
};

TEST(FlightSlots, PayloadStaysValidWhileTableGrowsInCallback) {
  // On a 64-clique the 63 receivers of node 0's broadcast each start a
  // flight while node 0's is still live, so the table grows from 1 slot to
  // 64 during callbacks that hold a reference to node 0's payload. A table
  // that moved its flights would leave that reference dangling (the
  // sanitizer lane reports it) or reading another broadcast's bytes.
  const std::size_t n = 64;
  const auto g = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(g, [](NodeId u) { return std::make_unique<RelayInCallback>(u); },
              sched);
  net.run(StopWhen::kQuiescent, 1000);
  EXPECT_EQ(net.instance_stats(0).peak_pool_slots, n);
  EXPECT_EQ(net.instance_stats(0).live_pool_slots, 0u);
  for (NodeId u = 1; u < n; ++u) {
    EXPECT_EQ(dynamic_cast<RelayInCallback&>(net.process(u)).intact_reads, 1u)
        << "at node " << u;
  }
}

// --- zero-allocation steady state ---------------------------------------

/// Broadcasts forever from a reused buffer; never allocates in callbacks.
class SteadyPinger final : public Process {
 public:
  SteadyPinger() : payload_(8, 0xAB) {}

  void on_start(Context& ctx) override { ctx.broadcast(payload_); }
  void on_receive(const Packet&, Context&) override {}
  void on_ack(Context& ctx) override { ctx.broadcast(payload_); }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<SteadyPinger>(*this);
  }
  void digest(util::Hasher& h) const override { h.mix_u64(payload_.size()); }

 private:
  util::Buffer payload_;
};

/// SteadyPinger with a round cap: broadcasts on start and on each of the
/// first `rounds - 1` acks, then goes quiet. Keeps large-n differential
/// runs bounded (the reference engine pays heap-log cost per event).
class BoundedPinger final : public Process {
 public:
  explicit BoundedPinger(std::size_t rounds)
      : rounds_(rounds), payload_(8, 0xAB) {}

  void on_start(Context& ctx) override {
    if (sent_ < rounds_) {
      ++sent_;
      ctx.broadcast(payload_);
    }
  }
  void on_receive(const Packet&, Context&) override {}
  void on_ack(Context& ctx) override { on_start(ctx); }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<BoundedPinger>(*this);
  }
  void digest(util::Hasher& h) const override { h.mix_u64(sent_); }

 private:
  std::size_t rounds_;
  std::size_t sent_ = 0;
  util::Buffer payload_;
};

TEST(EngineDifferential, LargeCliquePeakEventsAgree) {
  // n = 1024 clique, two bounded broadcast rounds per node: ~2.1M
  // deliveries, with ~1M events simultaneously queued at the fan-out
  // peak. Both engines must report the identical high-water mark (and
  // digest, stats, end time — the full differential contract) at a scale
  // three orders of magnitude past the other differential tests. This is
  // the regime the O(n^2) retire bug lived in; the reference engine is
  // the ground truth the calendar engine's large-n fast paths are held
  // to.
  const auto g = net::make_clique(1024);
  expect_engines_agree(
      g, [](NodeId) { return std::make_unique<BoundedPinger>(2); },
      [] { return std::make_unique<SynchronousScheduler>(1); }, {},
      StopWhen::kQuiescent, 100000);
}

TEST(EngineAllocation, SteadyStateCycleAllocatesNothingSynchronous) {
  const auto g = net::make_ring(16);
  SynchronousScheduler sched(1);
  Network net(g, [](NodeId) { return std::make_unique<SteadyPinger>(); },
              sched);
  // Warm-up: grows flight slots, lane/pending/scratch capacities.
  net.run(StopWhen::kQuiescent, 50);
  const std::uint64_t before = testutil::alloc_count();
  net.run(StopWhen::kQuiescent, 2000);
  const std::uint64_t after = testutil::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "steady-state broadcast->deliver->ack cycle allocated";
  EXPECT_GT(net.stats().deliveries, 30000u);  // the cycle really ran
}

TEST(EngineAllocation, SteadyStateCycleAllocatesNothingRandomDelays) {
  const auto g = net::make_ring(8);
  UniformRandomScheduler sched(6, 31337);
  Network net(g, [](NodeId) { return std::make_unique<SteadyPinger>(); },
              sched);
  // Warm-up long enough for the rare dense ticks of the random delay
  // distribution to have grown every bucket's lanes to their high-water
  // mark (a drained bucket keeps its lane capacity, so each bucket warms
  // once, to the densest tick that has mapped onto it).
  net.run(StopWhen::kQuiescent, 6000);
  const std::uint64_t before = testutil::alloc_count();
  net.run(StopWhen::kQuiescent, 16000);
  const std::uint64_t after = testutil::alloc_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(net.stats().deliveries, 10000u);
}

TEST(EngineAllocation, LargeTopologySteadyStateAllocatesNothing) {
  // Same zero-allocation contract at soak scale: a 32x32 torus (n = 1024,
  // degree 4) with every node re-broadcasting on ack. The warm-up run
  // grows the flight slots, per-node pending arrays, and the bucket lanes
  // to their n=1024 high-water marks; after that, millions of
  // broadcast->deliver->ack cycles must not allocate once. Guards the
  // large-n hot path specifically: a per-delivery or per-retire
  // allocation that is invisible at n=16 dominates the profile at 4096.
  const auto g = net::make_torus(32, 32);
  SynchronousScheduler sched(1);
  Network net(g, [](NodeId) { return std::make_unique<SteadyPinger>(); },
              sched);
  net.run(StopWhen::kQuiescent, 50);  // warm-up
  const std::uint64_t before = testutil::alloc_count();
  net.run(StopWhen::kQuiescent, 1000);
  const std::uint64_t after = testutil::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "large-topology steady state allocated";
  EXPECT_GT(net.stats().deliveries, 1000000u);  // the cycle ran at scale
}

TEST(EngineAllocation, SoAUniformFanoutBatchPathAllocatesNothing) {
  // Dense clique + SynchronousScheduler: every broadcast takes the SoA dense
  // fast path (uniform schedule -> one CalendarQueue::push_run entry, bulk
  // pending copy). After warm-up the whole fan-out cycle must be
  // allocation-free, and every delivery must have been pushed through the
  // wheel (a run counts its copies as wheel pushes; nothing spills to the
  // heap).
  const auto g = net::make_clique(12);
  SynchronousScheduler sched(4);
  Network net(g, [](NodeId) { return std::make_unique<SteadyPinger>(); },
              sched);
  net.run(StopWhen::kQuiescent, 100);
  const std::uint64_t before = testutil::alloc_count();
  net.run(StopWhen::kQuiescent, 4000);
  const std::uint64_t after = testutil::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "uniform (batch) fan-out path allocated in steady state";
  EXPECT_GT(net.stats().deliveries, 100000u);
  EXPECT_EQ(net.stats().overflow_pushes, 0u);
  EXPECT_GT(net.stats().wheel_pushes, 0u);
}

TEST(EngineAllocation, LateHoldOverflowSteadyStateIsAllocationFree) {
  // Late Holdback holds (registered after construction, so the wheel was
  // sized from the tiny pre-hold fack: 16 buckets), re-armed as they
  // release: every broadcast lands ~100 ticks out, past the wheel, and
  // takes the overflow heap and pops from it. Once the heap's storage and
  // the bucket lanes have warmed, that path must allocate nothing — the
  // heap reuses its vector and the wheel pushes beside it land in lanes
  // that kept their capacity.
  constexpr std::size_t n = 8;
  const auto g = net::make_clique(n);
  HoldbackScheduler hold(std::make_unique<SynchronousScheduler>(1),
                         /*release=*/4);
  Network net(g, [](NodeId) { return std::make_unique<SteadyPinger>(); },
              hold);
  std::vector<Time> release(n);
  for (NodeId u = 0; u < n; ++u) {
    release[u] = 100 + 8 * static_cast<Time>(u);
    hold.hold_sender_until(u, release[u]);
  }
  // Re-arming a sender's hold overwrites its map entry: no allocation.
  net.set_post_event_hook([&](Network& running) {
    const Time t = running.now();
    for (NodeId u = 0; u < n; ++u) {
      if (t >= release[u]) {
        release[u] = t + 100 + 8 * static_cast<Time>(u);
        hold.hold_sender_until(u, release[u]);
      }
    }
  });
  net.run(StopWhen::kQuiescent, 2000);
  const std::uint64_t warm_overflow = net.stats().overflow_pushes;
  EXPECT_GT(warm_overflow, 0u);
  const std::uint64_t before = testutil::alloc_count();
  net.run(StopWhen::kQuiescent, 8000);
  const std::uint64_t after = testutil::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "overflow-heap steady state allocated";
  EXPECT_GT(net.stats().overflow_pushes, warm_overflow);
  EXPECT_GT(net.stats().deliveries, 2000u);
}

TEST(EngineAllocation, FaultedSteadyStateWithDuplicatesAllocatesNothing) {
  // The duplicate re-enqueue path rides the same bucket lanes as ordinary
  // deliveries: once warmed, a steady state that keeps dropping AND
  // duplicating frames must stay allocation-free (the extra copies are
  // plan-driven pushes into lanes that kept their capacity, not new
  // storage).
  const auto g = net::make_ring(8);
  SynchronousScheduler sched(2);
  Network net(g, [](NodeId) { return std::make_unique<SteadyPinger>(); },
              sched);
  LinkFaultPlan plan;
  plan.seed = 0xD0B1E;
  plan.drop_rate_bp = 500;
  plan.dup_rate_bp = 1500;
  net.set_link_faults(plan);
  // Warm-up: duplicate arrivals spread over 1..kMaxDuplicateExtra extra
  // ticks, so the bucket lanes peak later than the unfaulted cycle's do.
  net.run(StopWhen::kQuiescent, 4000);
  const std::uint64_t before = testutil::alloc_count();
  net.run(StopWhen::kQuiescent, 12000);
  const std::uint64_t after = testutil::alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "faulted (duplicate-heavy) steady state allocated";
  EXPECT_GT(net.stats().duplicates, 1000u);  // the dup path really ran
  EXPECT_GT(net.stats().drops, 100u);        // and the drop path too
}

}  // namespace
}  // namespace amac::mac
