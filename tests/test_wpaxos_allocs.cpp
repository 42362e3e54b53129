// Allocation pin for the wPAXOS hot path.
//
// Simulating a wPAXOS instance is almost all protocol callbacks, and the
// engine beneath them allocates nothing in steady state
// (test_mac_event_core). This binary counts global operator new calls over
// one whole multihop instance — network construction, the run and the
// oracle — and pins that wPAXOS's own callbacks stay off the heap: received
// envelopes decode in place, outgoing ones reuse per-node scratch buffers,
// and the per-root tree tables grow geometrically instead of per entry.
#include <gtest/gtest.h>

#include <cstdio>

#include "alloc_hook.hpp"
#include "harness/experiment.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "util/rng.hpp"

namespace amac {
namespace {

TEST(WPaxosAllocations, GridInstanceStaysOffTheHeap) {
  // The shape of the benchmark's wpaxos_grid workload: a 16x16 grid,
  // UniformRandomScheduler(4), random inputs and permuted ids (so the
  // eventual leader lands anywhere on the grid).
  constexpr std::size_t kSide = 16;
  constexpr std::size_t n = kSide * kSide;
  const net::Graph graph = net::make_grid(kSide, kSide);
  util::Rng rng(0x6A11D);
  const std::vector<mac::Value> inputs = harness::inputs_random(n, rng);
  std::vector<std::uint64_t> ids = harness::permuted_ids(n, rng);
  mac::UniformRandomScheduler scheduler(4, rng());
  const mac::ProcessFactory factory =
      harness::wpaxos_factory(inputs, std::move(ids));

  const std::uint64_t before = testutil::alloc_count();
  const harness::Outcome outcome = harness::run_consensus(
      graph, factory, scheduler, inputs, mac::Time{1} << 32);
  const std::uint64_t allocs = testutil::alloc_count() - before;

  ASSERT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
  // ~41k deliveries and ~11k broadcasts: one allocation per callback would
  // be ~200 per node. What remains is construction plus each node's
  // geometric table growth, about 15 per node. Without dead-root pruning
  // every node grows a table entry for every root: about 24 per node.
  EXPECT_LT(allocs, 20 * n) << allocs << " allocations for n=" << n;
  std::printf("allocations per node: %.1f\n",
              static_cast<double>(allocs) / static_cast<double>(n));
}

}  // namespace
}  // namespace amac
