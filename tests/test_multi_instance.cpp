// Instance-multiplexing isolation (design doc: "Instance multiplexing" in
// mac/engine.hpp): instances share one Network — event queue, flight
// slots, sequence numbers — but must not be able to OBSERVE each other.
// Two pins:
//   * interleaved-vs-solo: each instance of a multiplexed run produces
//     bit-identical per-instance observables (decisions, process digests,
//     traffic stats) to the same protocol run alone on an identical
//     network. Deterministic schedulers only — sharing one RNG-driven
//     scheduler interleaves the draws by construction.
//   * engine differential: the calendar-queue engine and the frozen
//     reference-heap engine agree on every per-instance observable of a
//     multi-instance run (the single-instance differential is already
//     pinned by the fuzz soak; this extends it to >= 2 instances).
// Plus the completion hook: it fires exactly once after each event that
// completes one or more instances (a decide, a crash, a vacuous
// add_instance), never outside a run, while the post-event hook keeps
// firing on every event. And the retired-run fast path: a replicated log
// whose retired slots' relay copies are dropped a run at a time
// (CalendarQueue::discard_run) must be indistinguishable from the same
// service popping every copy (forced by a no-op post-event hook). And the
// instance lifecycle: retiring an instance frees its pool slot at once and
// leaves only its decisions; the next add_instance takes the slot while
// the retired instance's events are still queued, and those events touch
// nothing but their flights.
#include <gtest/gtest.h>

#include <functional>

#include "core/commit_flood.hpp"
#include "core/wpaxos/wpaxos.hpp"
#include "helpers.hpp"
#include "log/replicated_log.hpp"
#include "mac/engine.hpp"
#include "mac/reference_engine.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "util/hash.hpp"
#include "verify/checker.hpp"

namespace amac::mac {
namespace {

ProcessFactory wpaxos_factory(std::size_t n, Value value) {
  return [n, value](NodeId u) {
    return std::make_unique<core::wpaxos::WPaxos>(u, n, value, core::wpaxos::WPaxosConfig{});
  };
}

ProcessFactory commit_flood_factory(NodeId leader, Value value) {
  return [leader, value](NodeId u) {
    return std::make_unique<core::CommitFlood>(u == leader, value);
  };
}

std::uint64_t process_digest(const Process& p) {
  util::Hasher h;
  p.digest(h);
  return h.digest();
}

/// Everything a tenant can observe about its own instance.
template <typename Net>
void expect_instance_equal(const Net& a, InstanceId ia, const Net& b,
                           InstanceId ib, std::size_t n) {
  for (NodeId u = 0; u < n; ++u) {
    const Decision& da = a.decision(u, ia);
    const Decision& db = b.decision(u, ib);
    EXPECT_EQ(da.decided, db.decided) << "node " << u;
    EXPECT_EQ(da.value, db.value) << "node " << u;
    EXPECT_EQ(da.time, db.time) << "node " << u;
    EXPECT_EQ(process_digest(a.process(u, ia)), process_digest(b.process(u, ib)))
        << "node " << u;
  }
  EXPECT_TRUE(TrafficStats(a.instance_stats(ia)) ==
              TrafficStats(b.instance_stats(ib)));
}

TEST(MultiInstance, InterleavedInstancesMatchSoloRuns) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);

  // Three tenants with deliberately different traffic shapes: two wPAXOS
  // instances with different values and a CommitFlood burst.
  const std::vector<ProcessFactory> tenants = {
      wpaxos_factory(n, 3), wpaxos_factory(n, 7),
      commit_flood_factory(/*leader=*/2, 42)};

  SynchronousScheduler interleaved_sched(1);
  Network interleaved(graph, tenants[0], interleaved_sched);
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    interleaved.add_instance(tenants[i]);
  }
  ASSERT_EQ(interleaved.instance_count(), tenants.size());
  // Run to quiescence, not kAllDecided: the multiplexed run keeps serving
  // a fast tenant's in-flight events while slower tenants finish, so only
  // the drained totals are comparable to a solo run's.
  const auto r = interleaved.run(StopWhen::kQuiescent, 10000);
  ASSERT_TRUE(r.condition_met);

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    SynchronousScheduler solo_sched(1);
    Network solo(graph, tenants[i], solo_sched);
    ASSERT_TRUE(solo.run(StopWhen::kQuiescent, 10000).condition_met);
    expect_instance_equal(interleaved, static_cast<InstanceId>(i), solo, 0,
                          n);
  }
}

TEST(MultiInstance, EngineMatchesReferenceAcrossInstances) {
  const std::size_t n = 6;
  const net::Graph graph = net::make_ring(n);
  const std::vector<ProcessFactory> tenants = {
      wpaxos_factory(n, 11), commit_flood_factory(/*leader=*/0, 5),
      wpaxos_factory(n, 2)};

  SynchronousScheduler sched_a(2);
  Network engine(graph, tenants[0], sched_a);
  SynchronousScheduler sched_b(2);
  ReferenceNetwork reference(graph, tenants[0], sched_b);
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    EXPECT_EQ(engine.add_instance(tenants[i]),
              reference.add_instance(tenants[i]));
  }
  ASSERT_TRUE(engine.run(StopWhen::kAllDecided, 10000).condition_met);
  ASSERT_TRUE(reference.run(StopWhen::kAllDecided, 10000).condition_met);

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const auto instance = static_cast<InstanceId>(i);
    for (NodeId u = 0; u < n; ++u) {
      const Decision& de = engine.decision(u, instance);
      const Decision& dr = reference.decision(u, instance);
      EXPECT_EQ(de.decided, dr.decided);
      EXPECT_EQ(de.value, dr.value);
      EXPECT_EQ(de.time, dr.time);
      EXPECT_EQ(process_digest(engine.process(u, instance)),
                process_digest(reference.process(u, instance)));
    }
    EXPECT_TRUE(TrafficStats(engine.instance_stats(instance)) ==
                TrafficStats(reference.instance_stats(instance)));
  }
}

TEST(MultiInstance, PerInstanceOracleJudgesEachSlotIndependently) {
  const std::size_t n = 5;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, wpaxos_factory(n, 9), sched);
  net.add_instance(wpaxos_factory(n, 4));
  ASSERT_TRUE(net.run(StopWhen::kAllDecided, 10000).condition_met);

  const auto v0 = verify::check_consensus(net, 0, std::vector<Value>(n, 9));
  const auto v1 = verify::check_consensus(net, 1, std::vector<Value>(n, 4));
  EXPECT_TRUE(v0.ok());
  EXPECT_TRUE(v1.ok());
  EXPECT_EQ(v0.decision, std::optional<Value>(9));
  EXPECT_EQ(v1.decision, std::optional<Value>(4));
}

TEST(MultiInstance, PoolAccountingDrainsPerInstance) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, wpaxos_factory(n, 1), sched);
  const InstanceId second = net.add_instance(commit_flood_factory(3, 2));
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 10000).condition_met);

  for (InstanceId i = 0; i <= second; ++i) {
    const InstanceStats& s = net.instance_stats(i);
    EXPECT_GT(s.broadcasts, 0u) << "instance " << i;
    EXPECT_GT(s.peak_pool_slots, 0u) << "instance " << i;
    // Quiescent: every flight landed, so each instance's flight share is
    // fully returned — leak detection per tenant, not just globally.
    EXPECT_EQ(s.live_pool_slots, 0u) << "instance " << i;
    EXPECT_EQ(s.live_pool_bytes, 0u) << "instance " << i;
  }
}

TEST(MultiInstance, RetiredInstanceKeepsDecisionsAndFoldsItsTraffic) {
  const std::size_t n = 4;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, commit_flood_factory(1, 77), sched);
  const InstanceId live = net.add_instance(wpaxos_factory(n, 8));
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 10000).condition_met);

  TrafficStats expected = net.instance_stats(0);
  expected += net.instance_stats(live);
  net.retire_instance(0);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(net.decision(u, 0).decided);
    EXPECT_EQ(net.decision(u, 0).value, 77);
  }
  // The retired ledger lives on only in the engine-wide fold.
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 10000).condition_met);
  EXPECT_TRUE(TrafficStats(net.stats()) == expected);
  // The surviving tenant is untouched.
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(net.decision(u, live).value, 8);
  }
}

TEST(MultiInstance, MidRunInstanceLaunchesAtCurrentTickAndDecides) {
  const std::size_t n = 6;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, wpaxos_factory(n, 5), sched);

  // Launch a second tenant from inside the run, the moment the first one
  // fully decides (the ReplicatedLog pipelining primitive).
  InstanceId second = 0;
  bool launched = false;
  net.set_post_event_hook([&](Network& inner) {
    if (!launched && inner.instance_all_decided(0)) {
      launched = true;
      second = inner.add_instance(commit_flood_factory(0, 123));
    }
  });
  ASSERT_TRUE(net.run(StopWhen::kAllDecided, 10000).condition_met);
  ASSERT_TRUE(launched);

  const Time first_decided = net.decision(0, 0).time;
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(net.decision(u, second).decided);
    EXPECT_EQ(net.decision(u, second).value, 123);
    // The late tenant's timeline starts where the run already was.
    EXPECT_GE(net.decision(u, second).time, first_decided);
  }
}

/// Counts both hooks; `fired_at` holds the post-event count (the index of
/// the event just processed) at each completion-hook call. The optional
/// callbacks run a test's own checks from inside the hooks.
struct HookLog {
  std::size_t events = 0;
  std::vector<std::size_t> fired_at;
  std::function<void(Network&)> on_event;
  std::function<void(Network&)> on_complete;

  void install(Network& net) {
    net.set_post_event_hook([this](Network& inner) {
      ++events;
      if (on_event) on_event(inner);
    });
    net.set_completion_hook([this](Network& inner) {
      fired_at.push_back(events);
      if (on_complete) on_complete(inner);
    });
  }
};

std::uint64_t events_pushed(const Network& net) {
  return net.stats().wheel_pushes + net.stats().overflow_pushes;
}

TEST(CompletionHook, FiresOnceAfterTheCompletingDecide) {
  const std::size_t n = 3;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, commit_flood_factory(0, 9), sched);
  HookLog hooks;
  hooks.install(net);
  std::size_t completing_event = 0;
  hooks.on_event = [&](Network& inner) {
    if (completing_event == 0 && inner.instance_all_decided(0)) {
      completing_event = hooks.events;
    }
  };
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);

  // The followers' relays keep the queue busy after the decide; only the
  // event that decided the last node reports.
  ASSERT_GT(completing_event, 0u);
  EXPECT_EQ(hooks.fired_at, std::vector<std::size_t>{completing_event});
  EXPECT_EQ(hooks.events, events_pushed(net));
  EXPECT_GT(hooks.events, completing_event);
}

TEST(CompletionHook, OneCrashCompletingTwoInstancesFiresOnce) {
  // Nodes 0 and 1 decide after their first ack in both instances; node 2
  // never decides, so its crash completes both instances in one event.
  const std::size_t n = 3;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  const ProcessFactory factory = [](NodeId u) {
    return std::make_unique<testutil::ProbeProcess>(u, 1, u != 2);
  };
  Network net(graph, factory, sched);
  const InstanceId second = net.add_instance(factory);
  net.schedule_crash(CrashPlan{2, 5});
  HookLog hooks;
  hooks.install(net);
  Time fired_tick = 0;
  hooks.on_complete = [&](Network& inner) {
    fired_tick = inner.now();
    EXPECT_TRUE(inner.instance_all_decided(0));
    EXPECT_TRUE(inner.instance_all_decided(second));
  };
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);

  ASSERT_EQ(hooks.fired_at.size(), 1u);
  EXPECT_EQ(fired_tick, 5u);
  EXPECT_EQ(hooks.fired_at.back(), hooks.events);  // the crash came last
  EXPECT_EQ(hooks.events, events_pushed(net));
}

TEST(CompletionHook, InstanceAddedWithEveryNodeCrashedCompletesVacuously) {
  const std::size_t n = 2;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, testutil::probe_factory(1, true), sched);
  net.schedule_crash(CrashPlan{0, 3});
  net.schedule_crash(CrashPlan{1, 3});
  HookLog hooks;
  hooks.install(net);
  InstanceId added = 0;
  std::size_t add_event = 0;
  hooks.on_event = [&](Network& inner) {
    if (add_event == 0 && inner.crashed(0) && inner.crashed(1)) {
      added = inner.add_instance(testutil::probe_factory(1, true));
      add_event = hooks.events;
    }
  };
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);

  // Instance 0 completes by its own decides; the crashes complete nothing
  // (everyone had decided); the late instance completes as it is added.
  ASSERT_GT(add_event, 0u);
  EXPECT_TRUE(net.instance_all_decided(added));
  EXPECT_FALSE(net.decision(0, added).decided);
  ASSERT_EQ(hooks.fired_at.size(), 2u);
  EXPECT_LT(hooks.fired_at[0], add_event);
  EXPECT_EQ(hooks.fired_at[1], add_event);
  EXPECT_EQ(hooks.events, events_pushed(net));
}

TEST(CompletionHook, InstanceAddedAfterTheRunCompletesWithoutFiring) {
  const std::size_t n = 2;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, testutil::probe_factory(1), sched);
  net.schedule_crash(CrashPlan{0, 3});
  net.schedule_crash(CrashPlan{1, 3});
  HookLog hooks;
  hooks.install(net);
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);
  ASSERT_EQ(hooks.fired_at.size(), 1u);  // the second crash completed 0

  // Added after the run with every node crashed: complete, not reported.
  const InstanceId late = net.add_instance(testutil::probe_factory(1));
  ASSERT_TRUE(net.instance_all_decided(late));
  EXPECT_EQ(hooks.fired_at.size(), 1u);
}

// --- retired runs: bulk discard vs per-copy pops --------------------------

/// Everything one replicated-log run exposes about its network.
struct ServiceRecord {
  std::uint64_t trace = 0;
  EngineStats stats;
  log::LogServiceStats service;
  std::vector<Decision> decisions;  ///< instance-major, n per instance
};

/// Drives a 16-clique replicated log (batch 8, lease 64, window 4) with
/// the trace digest on. `per_copy` installs a no-op post-event hook, which
/// keeps the engine on the per-copy path for retired runs.
template <typename MakeScheduler>
ServiceRecord drive_log(MakeScheduler make_scheduler,
                        const LinkFaultPlan& faults, bool per_copy) {
  constexpr std::size_t n = 16;
  const net::Graph graph = net::make_clique(n);
  const auto scheduler = make_scheduler();
  const log::Workload workload(0x5E1F, 4000);
  log::LogConfig config;
  config.batch_size = 8;
  config.lease_slots = 64;
  config.window = 4;
  log::ReplicatedLog service(graph, *scheduler, workload, config);
  Network& net = service.network();
  net.enable_trace_digest();
  net.set_link_faults(faults);
  if (per_copy) net.set_post_event_hook([](Network&) {});
  const log::LogServiceStats& st = service.drive(Time{1} << 30);

  ServiceRecord r;
  r.trace = net.trace_digest();
  r.stats = net.stats();
  r.service = st;
  for (InstanceId i = 0; i < net.instance_count(); ++i) {
    for (NodeId u = 0; u < n; ++u) r.decisions.push_back(net.decision(u, i));
  }
  return r;
}

/// Every EngineStats field but discarded_copies, which names the path.
void expect_same_engine_stats(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.dropped_busy, b.dropped_busy);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.max_payload_bytes, b.max_payload_bytes);
  EXPECT_EQ(a.peak_events, b.peak_events);
  EXPECT_EQ(a.wheel_pushes, b.wheel_pushes);
  EXPECT_EQ(a.overflow_pushes, b.overflow_pushes);
  EXPECT_EQ(a.batch_pushes, b.batch_pushes);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.duplicates, b.duplicates);
}

/// The service's totals, summed from each slot's ledger as it decided.
void expect_same_service_stats(const log::LogServiceStats& a,
                               const log::LogServiceStats& b) {
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.slots_decided, b.slots_decided);
  EXPECT_EQ(a.slots_recovered, b.slots_recovered);
  EXPECT_EQ(a.ops_applied, b.ops_applied);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.decide_latency, b.decide_latency);
}

/// Runs the service both ways and demands identical observables; returns
/// the bulk run's record.
template <typename MakeScheduler>
ServiceRecord expect_bulk_matches_per_copy(MakeScheduler make_scheduler,
                                           const LinkFaultPlan& faults) {
  const ServiceRecord bulk = drive_log(make_scheduler, faults, false);
  const ServiceRecord copies = drive_log(make_scheduler, faults, true);
  EXPECT_EQ(bulk.trace, copies.trace);
  expect_same_engine_stats(bulk.stats, copies.stats);
  EXPECT_EQ(copies.stats.discarded_copies, 0u);
  expect_same_service_stats(bulk.service, copies.service);
  EXPECT_EQ(bulk.decisions.size(), copies.decisions.size());
  if (bulk.decisions.size() != copies.decisions.size()) return bulk;
  for (std::size_t k = 0; k < bulk.decisions.size(); ++k) {
    EXPECT_EQ(bulk.decisions[k].decided, copies.decisions[k].decided) << k;
    EXPECT_EQ(bulk.decisions[k].value, copies.decisions[k].value) << k;
    EXPECT_EQ(bulk.decisions[k].time, copies.decisions[k].time) << k;
  }
  return bulk;
}

TEST(RetiredRuns, LockStepLogDiscardsInBulkLikePerCopyPops) {
  const ServiceRecord bulk = expect_bulk_matches_per_copy(
      [] { return std::make_unique<SynchronousScheduler>(1); },
      LinkFaultPlan{});
  EXPECT_TRUE(bulk.service.complete);
  // Most of a lock-step clique's relay copies land on retired slots.
  EXPECT_GT(bulk.stats.discarded_copies, bulk.stats.deliveries);
}

TEST(RetiredRuns, FaultedLogKeepsDeferredCopiesPastADiscardedRun) {
  // Drops thin the kept runs; deferred copies (the window) and duplicates
  // of a retired flight are single queue entries that land after its run
  // was discarded, and must still drain the flight.
  LinkFaultPlan plan;
  plan.seed = 0xFA017;
  plan.drop_rate_bp = 500;
  plan.dup_rate_bp = 1500;
  plan.windows.push_back(DropWindow{15, 3, 10, 200});
  const ServiceRecord bulk = expect_bulk_matches_per_copy(
      [] { return std::make_unique<SynchronousScheduler>(1); }, plan);
  EXPECT_TRUE(bulk.service.complete);
  EXPECT_GT(bulk.stats.drops, 0u);
  EXPECT_GT(bulk.stats.duplicates, 0u);
  EXPECT_GT(bulk.stats.discarded_copies, 0u);
}

TEST(RetiredRuns, RandomDelaysHaveNoRunsToDiscard) {
  // The control: per-receiver delays queue every copy on its own, so both
  // paths pop every copy.
  const ServiceRecord bulk = expect_bulk_matches_per_copy(
      [] { return std::make_unique<UniformRandomScheduler>(4, 0x5EED); },
      LinkFaultPlan{});
  EXPECT_TRUE(bulk.service.complete);
  EXPECT_EQ(bulk.stats.batch_pushes, 0u);
  EXPECT_EQ(bulk.stats.discarded_copies, 0u);
}

TEST(RetiredRuns, DiscardedCopiesLeaveTheInFlightSet) {
  // A CommitFlood slot on a lock-step 8-clique, retired as soon as every
  // node has decided (t=1), while every follower's relay run is still
  // queued for t=2. Node 3's relay copy to node 5 is deferred to t=50, so
  // node 3's flight outlives its discarded run. Between ticks, the copies
  // for_each_in_flight visits must be exactly the ones in_flight_from
  // counts: a discarded copy is gone from both.
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, commit_flood_factory(/*leader=*/0, 7), sched);
  LinkFaultPlan plan;
  plan.windows.push_back(DropWindow{3, 5, 0, 50});
  net.set_link_faults(plan);

  bool retired = false;
  for (Time t = 0;; ++t) {
    const bool quiescent = net.run(StopWhen::kQuiescent, t).condition_met;
    if (!retired && net.instance_all_decided(0)) {
      net.retire_instance(0);
      retired = true;
    }
    std::size_t visited = 0;
    net.for_each_in_flight(
        [&](NodeId, NodeId, const util::Buffer&) { ++visited; });
    std::size_t counted = 0;
    for (NodeId u = 0; u < n; ++u) counted += net.in_flight_from(u, 0);
    ASSERT_EQ(visited, counted) << "t=" << t;
    if (t >= 2 && t < 50) {
      EXPECT_EQ(visited, 1u) << "t=" << t;
    }
    if (quiescent) break;
  }
  ASSERT_TRUE(retired);
  EXPECT_GT(net.stats().discarded_copies, 0u);
  // Every flight of the retired instance drained, discarded runs included.
  for (NodeId u = 0; u < n; ++u) EXPECT_EQ(net.in_flight_from(u, 0), 0u);
}

// --- instance lifecycle: a retired slot is reused at once ----------------

/// A Network that shows its pool (EngineCore keeps it protected).
class SlotProbe : public Network {
 public:
  using Network::Network;

  /// The instance's pool slot, or kRetired.
  [[nodiscard]] std::uint32_t pool_slot(InstanceId i) const {
    return instance_slot_[i];
  }
  [[nodiscard]] const InstanceNode& node(InstanceId i, NodeId u) const {
    return live_node(i, u);
  }
  using Network::kRetired;
};

/// A passive tenant: no leader, so no node broadcasts or decides unprompted.
ProcessFactory passive_factory() { return commit_flood_factory(kNoNode, 0); }

/// A CommitFlood slot (leader 0, value 7) on a lock-step 8-clique, retired
/// at t=1, the tick every node decides. Each follower's relay is queued
/// for t=2 with its ack; node 3's copy to node 5 is deferred to t=50, so
/// node 3's flight and its stretched ack stay queued until then.
struct RetiredSlot {
  static constexpr std::size_t n = 8;
  net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched{1};
  SlotProbe net{graph, commit_flood_factory(/*leader=*/0, 7), sched};

  RetiredSlot() { net.set_link_faults(plan()); }

  static LinkFaultPlan plan() {
    LinkFaultPlan p;
    p.windows.push_back(DropWindow{3, 5, 0, 50});
    return p;
  }

  /// Runs through t=1 and retires instance 0; returns its ledger as read
  /// just before retirement.
  TrafficStats retire_at_first_tick() {
    EXPECT_FALSE(net.run(StopWhen::kQuiescent, 1).condition_met);
    EXPECT_TRUE(net.instance_all_decided(0));
    const TrafficStats ledger = net.instance_stats(0);
    net.retire_instance(0);
    return ledger;
  }

  void expect_decisions_readable() const {
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_TRUE(net.decision(u, 0).decided) << "node " << u;
      EXPECT_EQ(net.decision(u, 0).value, 7) << "node " << u;
    }
  }
};

TEST(InstanceLifecycle, NextTenantTakesTheSlotWhileStaleEventsQueue) {
  RetiredSlot slot;
  SlotProbe& net = slot.net;
  const std::uint32_t k = net.pool_slot(0);
  slot.retire_at_first_tick();
  EXPECT_EQ(net.pool_slot(0), SlotProbe::kRetired);

  // Leader 2 broadcasts at once; every other node of the new tenant must
  // start idle, though each was busy relaying in instance 0.
  const InstanceId next = net.add_instance(commit_flood_factory(2, 9));
  ASSERT_EQ(net.pool_slot(next), k);
  for (NodeId u = 0; u < RetiredSlot::n; ++u) {
    EXPECT_EQ(net.node(next, u).busy, u == 2) << "node " << u;
  }
  EXPECT_EQ(net.instance_stats(next).live_pool_slots, 1u);
  EXPECT_EQ(net.in_flight_from(2, next), RetiredSlot::n - 1);

  // Instance 0's relays, acks and deferred copy pop among the tenant's
  // own events. Its undrained copy is still in flight until t=50.
  for (Time t = 2; t < 50; ++t) {
    ASSERT_FALSE(net.run(StopWhen::kQuiescent, t).condition_met);
    EXPECT_EQ(net.in_flight_from(3, 0), 1u) << "t=" << t;
  }
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);
  EXPECT_EQ(net.in_flight_from(3, 0), 0u);
  slot.expect_decisions_readable();

  // The tenant behaves as it would alone on a fresh network (one tick
  // later): no stale ack cleared its flags, no stale release touched its
  // flight footprint, no stale copy reached its processes.
  SynchronousScheduler solo_sched(1);
  Network solo(slot.graph, commit_flood_factory(2, 9), solo_sched);
  solo.set_link_faults(RetiredSlot::plan());
  ASSERT_TRUE(solo.run(StopWhen::kQuiescent, 1000).condition_met);
  const InstanceStats& got = net.instance_stats(next);
  const InstanceStats& want = solo.instance_stats(0);
  EXPECT_TRUE(TrafficStats(got) == TrafficStats(want));
  EXPECT_EQ(got.dropped_busy, 0u);
  EXPECT_EQ(got.live_pool_slots, 0u);
  EXPECT_EQ(got.live_pool_bytes, 0u);
  EXPECT_EQ(got.peak_pool_slots, want.peak_pool_slots);
  EXPECT_EQ(got.peak_pool_bytes, want.peak_pool_bytes);
  for (NodeId u = 0; u < RetiredSlot::n; ++u) {
    EXPECT_EQ(net.decision(u, next).value, 9) << "node " << u;
    EXPECT_EQ(net.decision(u, next).time, solo.decision(u).time + 1)
        << "node " << u;
    EXPECT_FALSE(net.node(next, u).busy) << "node " << u;
  }
}

TEST(InstanceLifecycle, EngineTrafficFoldsEachLedgerOnce) {
  RetiredSlot slot;
  SlotProbe& net = slot.net;
  TrafficStats expected = slot.retire_at_first_tick();
  const InstanceId next = net.add_instance(commit_flood_factory(2, 9));
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);
  const TrafficStats tenant = net.instance_stats(next);
  expected += tenant;
  EXPECT_TRUE(TrafficStats(net.stats()) == expected);

  // Retiring the tenant too moves its ledger into the fold, unchanged.
  net.retire_instance(next);
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);
  EXPECT_TRUE(TrafficStats(net.stats()) == expected);
}

TEST(InstanceLifecycle, RetiredInstanceKeepsOnlyItsDecisions) {
  RetiredSlot slot;
  SlotProbe& net = slot.net;
  slot.retire_at_first_tick();
  slot.expect_decisions_readable();
  EXPECT_TRUE(net.instance_all_decided(0));
  EXPECT_DEATH((void)net.instance_stats(0), "precondition");
  EXPECT_DEATH((void)net.process(0, 0), "precondition");
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);
  slot.expect_decisions_readable();
}

TEST(InstanceLifecycle, NodeCrashedWhileBusyLeavesNoFlagBehind) {
  // Node 4 relays at t=1 and crashes at t=1, after its relay started: its
  // copies are cancelled and its ack pops at t=2 for a crashed node.
  RetiredSlot slot;
  SlotProbe& net = slot.net;
  net.schedule_crash(CrashPlan{4, 1});
  slot.retire_at_first_tick();
  ASSERT_TRUE(net.crashed(4));
  slot.expect_decisions_readable();

  // The crashed node gets no process in the next instance, and the busy
  // flag it left behind does not carry over with the slot.
  const InstanceId next = net.add_instance(passive_factory());
  EXPECT_EQ(net.node(next, 4).process, nullptr);
  EXPECT_FALSE(net.node(next, 4).busy);
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 1000).condition_met);
  EXPECT_FALSE(net.node(next, 4).busy);
}

}  // namespace
}  // namespace amac::mac
