// The replicated log (src/log): slotted consensus instances + deterministic
// state machine = one linearized op stream, however the slots were batched,
// leased, pipelined, recovered, or re-elected.
#include <gtest/gtest.h>

#include "log/replicated_log.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "util/stats.hpp"

namespace amac::log {
namespace {

constexpr std::uint64_t kSeed = 0xFEED5EED;

LogServiceStats drive_service(const net::Graph& graph,
                              const Workload& workload,
                              const LogConfig& config, KvStateMachine* kv,
                              mac::Time horizon = mac::Time{1} << 32) {
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  LogServiceStats stats = service.drive(horizon);
  if (kv != nullptr) *kv = service.state_machine();
  return stats;
}

TEST(LogWorkload, IsDeterministicAndSeedSensitive) {
  const Workload a(kSeed, 100);
  const Workload b(kSeed, 100);
  const Workload c(kSeed + 1, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.op(i).key, b.op(i).key);
    EXPECT_EQ(a.op(i).value, b.op(i).value);
    any_diff |= a.op(i).key != c.op(i).key || a.op(i).value != c.op(i).value;
    EXPECT_LT(a.op(i).key, 1024u);  // default key space
  }
  EXPECT_TRUE(any_diff);
}

TEST(LogKvStateMachine, DigestPinsOpsAndOrder) {
  const Workload w(kSeed, 4);
  KvStateMachine in_order;
  for (std::size_t i = 0; i < 4; ++i) in_order.apply(i, w.op(i));

  KvStateMachine same;
  for (std::size_t i = 0; i < 4; ++i) same.apply(i, w.op(i));
  EXPECT_EQ(in_order.digest(), same.digest());
  EXPECT_EQ(in_order.applied(), 4u);

  // A different stream (same length) folds to a different digest.
  const Workload other(kSeed + 9, 4);
  KvStateMachine different;
  for (std::size_t i = 0; i < 4; ++i) different.apply(i, other.op(i));
  EXPECT_NE(in_order.digest(), different.digest());

  // Reads hit the table the ops built.
  EXPECT_EQ(in_order.get(w.op(3).key), w.op(3).value);
}

TEST(LogService, BatchedAndNaiveLinearizeIdentically) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 256);

  LogConfig batched;
  batched.batch_size = 8;
  batched.window = 4;
  batched.lease_slots = 8;
  KvStateMachine batched_kv;
  const auto bs = drive_service(graph, workload, batched, &batched_kv);
  EXPECT_TRUE(bs.complete);
  EXPECT_EQ(bs.oracle_failures, 0u);
  EXPECT_EQ(bs.ops_applied, 256u);
  EXPECT_EQ(bs.slots_total, 32u);
  EXPECT_EQ(bs.slots_full_paxos, 4u);   // slots 0, 8, 16, 24
  EXPECT_EQ(bs.slots_leased, 28u);
  EXPECT_EQ(bs.slots_recovered, 0u);

  LogConfig naive;
  naive.batch_size = 1;
  naive.window = 4;
  naive.lease_slots = 1;
  KvStateMachine naive_kv;
  const auto ns = drive_service(graph, workload, naive, &naive_kv);
  EXPECT_TRUE(ns.complete);
  EXPECT_EQ(ns.oracle_failures, 0u);
  EXPECT_EQ(ns.slots_total, 256u);
  EXPECT_EQ(ns.slots_leased, 0u);

  // THE service-level pin: identical client stream => identical state
  // machine, no matter how the log was slotted.
  EXPECT_EQ(batched_kv.digest(), naive_kv.digest());
  EXPECT_EQ(batched_kv.applied(), naive_kv.applied());

  // And the lease amortization is visible in virtual time too, not just
  // wall clock: fewer, cheaper slots must finish the same stream sooner.
  EXPECT_LT(bs.end_time, ns.end_time);
}

TEST(LogService, LeaseAmortizesBroadcastsPerOp) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 256);

  LogConfig leased;
  leased.batch_size = 1;  // isolate the lease: same slot count...
  leased.lease_slots = 64;
  const auto ls = drive_service(graph, workload, leased, nullptr);

  LogConfig unleased;
  unleased.batch_size = 1;  // ...vs full wPAXOS for every slot
  unleased.lease_slots = 1;
  const auto us = drive_service(graph, workload, unleased, nullptr);

  ASSERT_TRUE(ls.complete);
  ASSERT_TRUE(us.complete);
  // CommitFlood is one dissemination wave (n broadcasts per slot);
  // wPAXOS's proposer/acceptor exchange is a multiple of that.
  EXPECT_LT(ls.broadcasts, us.broadcasts / 2);
  EXPECT_LT(ls.payload_bytes, us.payload_bytes);
}

TEST(LogService, PipeliningKeepsWindowSlotsInFlight) {
  const net::Graph graph = net::make_clique(6);
  const Workload workload(kSeed, 64);

  LogConfig wide;
  wide.batch_size = 4;
  wide.window = 4;
  wide.lease_slots = 4;
  const auto ws = drive_service(graph, workload, wide, nullptr);

  LogConfig serial = wide;
  serial.window = 1;
  const auto ss = drive_service(graph, workload, serial, nullptr);

  ASSERT_TRUE(ws.complete);
  ASSERT_TRUE(ss.complete);
  EXPECT_LT(ws.end_time, ss.end_time);  // overlap must buy virtual time
}

TEST(LogService, RecoversWhenLeaseHolderCrashes) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  // Node n-1 holds the lease (max-id Omega winner under identity ids).
  // Crash it early: every leased slot launched after the crash has no
  // originator, stalls the queue, and must be recovered onto the full
  // wPAXOS slow path.
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});
  KvStateMachine crashed_kv;
  const auto cs = drive_service(graph, workload, config, &crashed_kv);

  EXPECT_TRUE(cs.complete);
  EXPECT_EQ(cs.oracle_failures, 0u);
  EXPECT_EQ(cs.ops_applied, 64u);
  EXPECT_GT(cs.slots_recovered, 0u);

  // The crash changes the path every slot takes, not the decided log: a
  // crash-free naive service over the same stream applies the same ops.
  LogConfig clean;
  clean.batch_size = 1;
  clean.lease_slots = 1;
  KvStateMachine clean_kv;
  const auto qs = drive_service(graph, workload, clean, &clean_kv);
  ASSERT_TRUE(qs.complete);
  EXPECT_EQ(crashed_kv.digest(), clean_kv.digest());
}

TEST(LogService, ReElectsLeaderAfterCrashAndResumesFastPath) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 2;  // 32 slots, renewals at 0, 8, 16, 24
  config.window = 2;
  config.lease_slots = 8;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});
  KvStateMachine crashed_kv;
  const auto cs = drive_service(graph, workload, config, &crashed_kv);

  EXPECT_TRUE(cs.complete);
  EXPECT_EQ(cs.oracle_failures, 0u);
  EXPECT_GT(cs.slots_recovered, 0u);

  // The renewal slot after the crash elects a LIVE node (the max-id
  // survivor, n-2, under identity ids) and the lease heals.
  EXPECT_GE(cs.re_elections, 1u);
  EXPECT_NE(cs.leader, static_cast<NodeId>(n - 1));
  EXPECT_EQ(cs.leader, static_cast<NodeId>(n - 2));
  EXPECT_TRUE(cs.lease_ok);

  // The fast path RESUMES under the new lease: most of the ~28 non-renewal
  // slots ride CommitFlood again. A terminal lease break would cap
  // slots_leased at the couple of pre-crash window launches.
  EXPECT_GE(cs.slots_leased, 10u);

  // Same decided log as a crash-free run, slot paths notwithstanding.
  LogConfig clean;
  clean.batch_size = 1;
  clean.lease_slots = 1;
  KvStateMachine clean_kv;
  const auto qs = drive_service(graph, workload, clean, &clean_kv);
  ASSERT_TRUE(qs.complete);
  EXPECT_EQ(crashed_kv.digest(), clean_kv.digest());
}

TEST(LogService, RecoveredSlotLatencyIncludesTheStall) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  LogConfig crashed = config;
  crashed.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});

  const auto cs = drive_service(graph, workload, crashed, nullptr);
  const auto ns = drive_service(graph, workload, config, nullptr);
  ASSERT_TRUE(cs.complete);
  ASSERT_TRUE(ns.complete);
  ASSERT_GT(cs.slots_recovered, 0u);

  // Recovered slots carry a relaunch diagnostic, and their decide latency
  // is measured from the FIRST launch — so the crash run's p99 must
  // exceed the clean run's (the old code reset launched_at at relaunch,
  // hiding the entire stall from the latency distribution).
  bool any_relaunched = false;
  for (std::size_t slot = 0; slot < cs.slots_total; ++slot) {
    if (cs.relaunched_at[slot] == 0) continue;
    any_relaunched = true;
    EXPECT_GT(cs.decide_latency[slot],
              ns.decide_latency[slot]);  // stall included, same slot clean
  }
  EXPECT_TRUE(any_relaunched);
  EXPECT_GT(util::nearest_rank(cs.decide_latency, 0.99),
            util::nearest_rank(ns.decide_latency, 0.99));
}

TEST(LogService, MultiRoundRecoveryCountsEachSlotOnce) {
  // Crash a MAJORITY so even relaunched wPAXOS slots stall: recovery then
  // revisits the same in-flight slots every round. Each slot must be
  // counted in slots_recovered exactly once, and an already-full-paxos
  // slot is only relaunched when provably stalled (no traffic since the
  // previous round's look) — so relaunches stays well under
  // rounds * inflight.
  const std::size_t n = 4;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 8);

  LogConfig config;
  config.batch_size = 4;  // 2 slots, both in the initial window
  config.window = 2;
  config.lease_slots = 16;
  config.max_recovery_rounds = 4;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 0});
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 2), 0});
  const auto stats = drive_service(graph, workload, config, nullptr);

  EXPECT_FALSE(stats.complete);  // no live majority: nothing can decide
  EXPECT_EQ(stats.slots_recovered, 2u);  // once per slot, NOT once per round
  EXPECT_GT(stats.relaunches, stats.slots_recovered);  // later rounds retried
  EXPECT_LT(stats.relaunches,
            config.max_recovery_rounds * 2u + 2u);  // but skipped live ones
}

TEST(LogService, QuiescenceExactlyAtHorizonStillRecovers) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});

  // Probe: with recovery disabled, the crashed-leader run drains its event
  // queue and stops at the stall's quiescence tick.
  LogConfig probe = config;
  probe.max_recovery_rounds = 0;
  const auto ps = drive_service(graph, workload, probe, nullptr);
  ASSERT_FALSE(ps.complete);
  ASSERT_EQ(ps.slots_recovered, 0u);
  const mac::Time stall_tick = ps.end_time;

  // Now set the horizon EXACTLY at that tick: the queue (not the budget)
  // is the binding constraint, so recovery must still fire — the old
  // `now >= horizon` check conflated the two and skipped it.
  const auto bs = drive_service(graph, workload, config, nullptr,
                                /*horizon=*/stall_tick);
  EXPECT_GT(bs.slots_recovered, 0u);
  // The relaunched instances' events then land beyond the budget, which
  // IS horizon exhaustion — reported as such, not as a silent give-up.
  EXPECT_FALSE(bs.complete);
  EXPECT_TRUE(bs.horizon_exhausted);

  // One tick of headroom short of the stall is genuine exhaustion: events
  // were still pending, and recovery must NOT fire.
  const auto es = drive_service(graph, workload, config, nullptr,
                                /*horizon=*/stall_tick - 1);
  EXPECT_EQ(es.slots_recovered, 0u);
  EXPECT_TRUE(es.horizon_exhausted);
}

TEST(LogService, LeaderReadsHonorTheReadIndexBound) {
  const net::Graph graph = net::make_clique(6);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;  // 16 slots
  config.window = 1;      // serial: decide order == slot order, so the
  config.lease_slots = 4;  // read stream below is exactly one per slot
  config.read_every = 1;
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  const auto& stats = service.drive(mac::Time{1} << 32);

  ASSERT_TRUE(stats.complete);
  EXPECT_EQ(stats.reads_issued, 16u);
  EXPECT_EQ(stats.reads_served, 16u);
  EXPECT_EQ(stats.read_latency.size(), 16u);

  // Serial decides make the read stream deterministic: read i is issued at
  // slot i's decide, keyed by the slot's last written key, bound to slot
  // i — so its served value must equal the last write to that key within
  // the first (i+1) batches. Replay the prefix to check freshness exactly.
  const auto& reads = service.reads();
  ASSERT_EQ(reads.size(), 16u);
  KvStateMachine replay;
  std::size_t applied = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto [first, last] = service.batch_range(i);
    for (std::size_t j = first; j < last; ++j) replay.apply(j, workload.op(j));
    applied = last;
    const ReadRecord& r = reads[i];
    EXPECT_TRUE(r.served);
    EXPECT_EQ(r.bound, i + 1);
    EXPECT_EQ(r.key, workload.op(applied - 1).key);
    EXPECT_EQ(r.value, replay.get(r.key));
    EXPECT_GE(r.served_at, r.issued_at);
  }

  // Post-drive reads serve immediately from the final applied prefix.
  const std::size_t id = service.submit_read(workload.op(0).key);
  EXPECT_TRUE(service.reads()[id].served);
  EXPECT_EQ(service.reads()[id].value,
            service.state_machine().get(workload.op(0).key));
  EXPECT_EQ(service.reads()[id].bound, 16u);
}

TEST(LogService, HorizonExhaustionReportsIncomplete) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 512);
  LogConfig naive;
  naive.batch_size = 1;
  naive.lease_slots = 1;
  const auto stats =
      drive_service(graph, workload, naive, nullptr, /*horizon=*/20);
  EXPECT_FALSE(stats.complete);
  EXPECT_LT(stats.ops_applied, 512u);
  EXPECT_LE(stats.end_time, 21u);
}

TEST(LogService, BatchRangeCoversStreamWithRaggedTail) {
  const net::Graph graph = net::make_clique(4);
  const Workload workload(kSeed, 10);  // 10 ops, batch 4 => 4+4+2
  LogConfig config;
  config.batch_size = 4;
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  EXPECT_EQ(service.batch_range(0), (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(service.batch_range(2), (std::pair<std::size_t, std::size_t>{8, 10}));
  const auto stats = service.drive(mac::Time{1} << 32);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.ops_applied, 10u);
  EXPECT_EQ(stats.slots_total, 3u);
}

}  // namespace
}  // namespace amac::log
