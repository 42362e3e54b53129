// Allocation pin for the replicated log's leased slots.
//
// The engine's broadcast -> deliver -> ack cycle allocates nothing in
// steady state (test_mac_event_core), and neither do CommitFlood's relays
// nor the per-slot oracle: relays encode into a reused scratch buffer, the
// oracle's input vector is a member filled per slot, and the KV's hash
// table stops growing once its keys exist. This binary counts global
// operator new calls over drive() on a 16-clique and pins what a slot may
// still cost: constructing its n processes plus a handful of container
// allocations, below 2n per slot. A second test pins what the finished
// service still holds per slot: a retired slot keeps its n decisions, not
// its node table. A third pins the same configuration's virtual costs
// (engine counters) exactly.
#include <gtest/gtest.h>

#include <cstdio>

#include "alloc_hook.hpp"
#include "log/replicated_log.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"

namespace amac::log {
namespace {

// The shape of the benchmark's log_lease_rw workload without reads: a
// 16-clique in lock step, batch 8, lease 64, window 4.
constexpr std::size_t kNodes = 16;
constexpr std::size_t kOps = 20000;

LogConfig leased_config() {
  LogConfig config;
  config.batch_size = 8;
  config.lease_slots = 64;
  config.window = 4;
  return config;
}

struct LeasedClique {
  net::Graph graph = net::make_clique(kNodes);
  mac::SynchronousScheduler scheduler{1};
  Workload workload{0x10CA11, kOps};
  ReplicatedLog service{graph, scheduler, workload, leased_config()};
};

TEST(LogAllocations, LeasedSlotsStayNearProcessConstruction) {
  LeasedClique clique;
  const std::uint64_t before = testutil::alloc_count();
  const LogServiceStats& stats = clique.service.drive(mac::Time{1} << 40);
  const std::uint64_t allocs = testutil::alloc_count() - before;

  ASSERT_TRUE(stats.complete);
  ASSERT_EQ(stats.oracle_failures, 0u);
  ASSERT_EQ(stats.slots_total, kOps / leased_config().batch_size);
  const double per_slot =
      static_cast<double>(allocs) / static_cast<double>(stats.slots_total);
  // n process objects per slot are the floor; a fresh payload buffer per
  // relay alone would add about 2n more (a 2-byte varint grows twice).
  EXPECT_LT(per_slot, 2.0 * kNodes) << allocs << " allocations for "
                                    << stats.slots_total << " slots";
  std::printf("allocations per slot: %.1f\n", per_slot);
}

TEST(LogMemory, FinishedServiceKeepsDecisionsNotNodeTables) {
  // What drive() leaves held, per slot. A retired slot keeps only its 16
  // decisions (256 B in the chunked column) and a 4-B pool-slot entry; the
  // rest is the key-value state and the log's latency records (about
  // 385 B per slot in all). A retired slot that kept a 112-B Instance
  // header as well left about 563 B, and one that kept its 16-node table
  // too about 1110 B.
  LeasedClique clique;
  const std::int64_t before = testutil::live_bytes();
  const LogServiceStats& stats = clique.service.drive(mac::Time{1} << 40);
  const std::int64_t retained = testutil::live_bytes() - before;

  ASSERT_TRUE(stats.complete);
  ASSERT_EQ(stats.slots_total, kOps / leased_config().batch_size);
  const double per_slot =
      static_cast<double>(retained) / static_cast<double>(stats.slots_total);
  EXPECT_LT(per_slot, 420.0) << retained << " bytes held for "
                             << stats.slots_total << " slots";
  std::printf("bytes held per slot: %.1f\n", per_slot);
}

TEST(LogVirtualCosts, LeasedCliqueEngineCountersArePinned) {
  // Virtual costs are seed-deterministic, so they are pinned exactly: a
  // change that moves one changes what the service asks of the MAC layer,
  // not how fast the engine serves it. Per op (20000 ops): 34.50 queued
  // copies, 4.22 deliveries, 2.16 broadcasts, 6.47 payload bytes.
  //
  // Dead-root pruning in the 40 full-paxos (renewal) slots took deliveries
  // from 104100 and broadcasts from 43840 but raised payload bytes from
  // 133743: the nodes it leaves idle send what busy ones never did. Per
  // slot, searches fall from 111 to 31 (-240 bytes), but all 16 nodes now
  // relay the decision where only the decider did (+147 bytes: verbatim,
  // every other node was still relaying dead searches when the slot
  // retired), and proposer relays (63 -> 79) and responses (45 -> 60) go
  // out one by one instead of being superseded or merged in a busy queue.
  //
  // Skipping seen changes then took queued copies from 699520, deliveries
  // from 93300, broadcasts from 43720 and payload bytes from 139120: the
  // renewal slots' leaders no longer restart a proposal for a change made
  // before it launched, and each restart they drop saves a prepare flood
  // and its responses.
  LeasedClique clique;
  ASSERT_TRUE(clique.service.drive(mac::Time{1} << 40).complete);
  const mac::EngineStats& s = clique.service.network().stats();
  EXPECT_EQ(s.wheel_pushes + s.overflow_pushes, 689920u);
  EXPECT_EQ(s.deliveries, 84300u);
  EXPECT_EQ(s.broadcasts, 43120u);
  EXPECT_EQ(s.payload_bytes, 129360u);
  EXPECT_EQ(s.peak_events, 1328u);
  EXPECT_EQ(s.batch_pushes, 43120u);  // every fan-out one run-length entry
  // The engine layer that got faster: copies addressed to retired slots
  // and dropped a run at a time instead of popped one by one — 75% of
  // all queued copies on this lock-step clique.
  EXPECT_EQ(s.discarded_copies, 525000u);
}

}  // namespace
}  // namespace amac::log
