// E8 — ablations of the three wPAXOS design choices the paper motivates in
// §4.2.1. Each is measured against Algorithms 3 and 4 verbatim (dead-root
// pruning and seen-change skipping off, the "verbatim" row) with one switch
// off:
//
//   * tree_priority off: Algorithm 4's "move the leader's search message to
//     the front" is what completes the leader's tree soon after election
//     stabilizes; without it the tree (and decision) waits behind O(n)
//     other roots' searches.
//   * aggregate_responses off: every acceptor response travels to the
//     leader individually, recreating the Theta(n)-messages bottleneck the
//     paper's aggregation exists to avoid.
//   * change_gating off: the leader regenerates proposals on every observed
//     event instead of Theta(1) per change notification — a proposal storm.
//
// Pruning must stay off for these rows: with it on, the other roots'
// searches the first and third choices react to are gone, and on these
// topologies no-tree-priority and no-change-gating measure exactly what
// the pruned "full" row does. The "full" row (the defaults) is compared
// against "verbatim" for the messages and decision time the two deviations
// save together.
//
// Safety must hold in every configuration (it does: the switches only
// affect liveness/performance). The exit code also checks the shape: on
// the multihop grid and geometric graphs no-tree-priority and
// no-aggregation decide later than verbatim, no-change-gating starts at
// least 1.5x as many proposals as verbatim everywhere, and full sends
// fewer broadcasts than verbatim everywhere.
#include <cstdio>

#include "core/wpaxos/wpaxos.hpp"
#include "harness/experiment.hpp"
#include "net/topologies.hpp"
#include "util/table.hpp"

namespace {

using namespace amac;

struct Measured {
  mac::Time time = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t proposals = 0;
  bool ok = false;
};

Measured run(const net::Graph& g, const core::wpaxos::WPaxosConfig& cfg,
             std::uint64_t seed) {
  const std::size_t n = g.node_count();
  util::Rng rng(seed);
  const auto inputs = harness::inputs_random(n, rng);
  const auto ids = harness::permuted_ids(n, rng);
  mac::UniformRandomScheduler sched(2, rng());
  mac::Network net(g, harness::wpaxos_factory(inputs, ids, cfg), sched);
  net.run(mac::StopWhen::kAllDecided, 100'000'000);
  const auto verdict = verify::check_consensus(net, inputs);
  Measured m;
  m.time = verdict.last_decision;
  m.broadcasts = net.stats().broadcasts;
  m.proposals = harness::collect_protocol_stats(net).proposals;
  m.ok = verdict.ok();
  return m;
}

}  // namespace

int main() {
  std::printf(
      "E8: wPAXOS design-choice ablations (random scheduler, F_ack=2,\n"
      "averaged over 3 seeds).\n\n");

  struct Case {
    std::string name;
    net::Graph graph;
  };
  util::Rng topo_rng(3);
  std::vector<Case> cases;
  cases.push_back({"line-32", net::make_line(32)});
  cases.push_back({"grid-8x8", net::make_grid(8, 8)});
  cases.push_back({"geo-64", net::make_random_geometric(64, 0.2, topo_rng)});

  struct Ablation {
    const char* name;
    core::wpaxos::WPaxosConfig cfg;
  };
  core::wpaxos::WPaxosConfig verbatim;
  verbatim.prune_dead_roots = false;
  verbatim.skip_seen_changes = false;
  std::vector<Ablation> ablations;
  ablations.push_back({"full", {}});
  ablations.push_back({"verbatim", verbatim});
  {
    auto c = verbatim;
    c.tree_priority = false;
    ablations.push_back({"no-tree-priority", c});
  }
  {
    auto c = verbatim;
    c.aggregate_responses = false;
    ablations.push_back({"no-aggregation", c});
  }
  {
    auto c = verbatim;
    c.change_gating = false;
    ablations.push_back({"no-change-gating", c});
  }
  enum { kFull, kVerbatim, kNoTreePriority, kNoAggregation, kNoChangeGating };

  util::Table table({"topology", "variant", "time", "vs verbatim",
                     "broadcasts", "proposals", "safe"});

  struct Averaged {
    double time = 0;
    double broadcasts = 0;
    double proposals = 0;
    bool safe = true;
  };
  bool all_safe = true;
  bool shape = true;
  for (auto& c : cases) {
    std::vector<Averaged> avg(ablations.size());
    for (std::size_t a = 0; a < ablations.size(); ++a) {
      const int kSeeds = 3;
      for (int s = 0; s < kSeeds; ++s) {
        const auto m = run(c.graph, ablations[a].cfg, 1000 + s);
        avg[a].time += static_cast<double>(m.time) / kSeeds;
        avg[a].broadcasts += static_cast<double>(m.broadcasts) / kSeeds;
        avg[a].proposals += static_cast<double>(m.proposals) / kSeeds;
        avg[a].safe = avg[a].safe && m.ok;
      }
      all_safe = all_safe && avg[a].safe;
    }
    for (std::size_t a = 0; a < ablations.size(); ++a) {
      table.row()
          .cell(c.name)
          .cell(ablations[a].name)
          .cell(avg[a].time, 1)
          .cell(avg[a].time / avg[kVerbatim].time)
          .cell(avg[a].broadcasts, 0)
          .cell(avg[a].proposals, 1)
          .cell(avg[a].safe);
    }
    // On a line responses pipeline one hop apart and rarely merge, so only
    // the multihop graphs are held to the two slowdowns.
    if (c.name != "line-32") {
      shape = shape && avg[kNoTreePriority].time > avg[kVerbatim].time &&
              avg[kNoAggregation].time > avg[kVerbatim].time;
    }
    shape = shape &&
            avg[kNoChangeGating].proposals >= 1.5 * avg[kVerbatim].proposals &&
            avg[kFull].broadcasts < avg[kVerbatim].broadcasts;
  }

  table.print();
  std::printf(
      "\nexpected shape: every variant SAFE (switches are liveness-only);\n"
      "against verbatim, no-aggregation and no-tree-priority slow decisions\n"
      "on grid and geo, no-change-gating multiplies proposal counts >= 1.5x,\n"
      "and full (pruning, seen-change skipping) sends fewer broadcasts.\n"
      "safety holds: %s, shape holds: %s\n",
      all_safe ? "YES" : "NO", shape ? "YES" : "NO");
  return all_safe && shape ? 0 : 1;
}
