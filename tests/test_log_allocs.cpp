// Allocation pin for the replicated log's leased slots.
//
// The engine's broadcast -> deliver -> ack cycle allocates nothing in
// steady state (test_mac_event_core), and neither do CommitFlood's relays
// nor the per-slot oracle: relays encode into a reused scratch buffer, the
// oracle's input vector is a member filled per slot, and the KV's hash
// table stops growing once its keys exist. This binary counts global
// operator new calls over drive() on a 16-clique and pins what a slot may
// still cost: constructing its n processes plus a handful of container
// allocations, below 2n per slot. A second test pins the same
// configuration's virtual costs (engine counters) exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "log/replicated_log.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"

// --- allocation counting hook (linked into this test binary only) --------

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  const std::uint64_t before = g_alloc_count;
  const LogServiceStats& stats = clique.service.drive(mac::Time{1} << 40);
  const std::uint64_t allocs = g_alloc_count - before;

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

TEST(LogVirtualCosts, LeasedCliqueEngineCountersArePinned) {
  // Virtual costs are seed-deterministic, so they are pinned exactly: a
  // change that moves one changes what the service asks of the MAC layer,
  // not how fast the engine serves it. Per op (20000 ops): 35.07 queued
  // copies, 5.2 deliveries, 2.19 broadcasts, 6.69 payload bytes.
  LeasedClique clique;
  ASSERT_TRUE(clique.service.drive(mac::Time{1} << 40).complete);
  const mac::EngineStats& s = clique.service.network().stats();
  EXPECT_EQ(s.wheel_pushes + s.overflow_pushes, 701440u);
  EXPECT_EQ(s.deliveries, 104100u);
  EXPECT_EQ(s.broadcasts, 43840u);
  EXPECT_EQ(s.payload_bytes, 133743u);
  EXPECT_EQ(s.peak_events, 1328u);
  EXPECT_EQ(s.batch_pushes, 43840u);  // every fan-out one run-length entry
  // The engine layer that got faster: copies addressed to retired slots
  // and dropped a run at a time instead of popped one by one — 74% of
  // all queued copies on this lock-step clique.
  EXPECT_EQ(s.discarded_copies, 516600u);
}

}  // namespace
}  // namespace amac::log
