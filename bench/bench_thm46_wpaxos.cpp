// E6 — Theorem 4.6: wPAXOS solves consensus in O(D * F_ack) time on any
// connected multihop topology (unique ids + knowledge of n).
//
// Sweep of topology families x F_ack; reports decision time normalized by
// D * F_ack, plus the GST decomposition the liveness proof (Lemma 4.5) is
// built on: when the leader election stabilizes network-wide, when the
// leader's shortest-path tree completes, and when the last node decides.
// The paper's shape: normalized time bounded by a constant across families
// and sizes (each GST phase is itself O(D * F_ack)).
#include <cstdio>

#include "core/wpaxos/wpaxos.hpp"
#include "harness/experiment.hpp"
#include "net/topologies.hpp"
#include "util/table.hpp"

namespace {

using namespace amac;

struct GstProbe {
  const net::Graph* graph;
  std::vector<std::uint64_t> ids;
  std::uint64_t leader_id;
  NodeId leader_index;
  std::vector<std::uint32_t> bfs;

  mac::Time leader_stable = 0;
  mac::Time tree_stable = 0;
  bool leader_done = false;
  bool tree_done = false;

  void check(mac::Network& net) {
    if (!leader_done) {
      bool all = true;
      for (NodeId u = 0; u < net.node_count() && all; ++u) {
        const auto* p =
            dynamic_cast<const core::wpaxos::WPaxos*>(&net.process(u));
        all = p->omega() == leader_id;
      }
      if (all) {
        leader_done = true;
        leader_stable = net.now();
      }
    }
    if (!tree_done) {
      bool all = true;
      for (NodeId u = 0; u < net.node_count() && all; ++u) {
        const auto* p =
            dynamic_cast<const core::wpaxos::WPaxos*>(&net.process(u));
        const auto it = p->tree().find(leader_id);
        all = it != p->tree().end() && it->second.dist == bfs[u];
      }
      if (all) {
        tree_done = true;
        tree_stable = net.now();
      }
    }
  }
};

}  // namespace

int main() {
  std::printf(
      "E6 / Theorem 4.6: wPAXOS on multihop topologies; time normalized by\n"
      "D * F_ack, with the GST decomposition of Lemma 4.5.\n\n");

  util::Table table({"topology", "n", "D", "F_ack", "leader-stable",
                     "tree-stable", "decided", "time/(D*F_ack)", "broadcasts",
                     "proposals", "max payload B", "ok"});

  struct Case {
    std::string name;
    net::Graph graph;
  };
  util::Rng rng(42);
  std::vector<Case> cases;
  cases.push_back({"line-16", net::make_line(16)});
  cases.push_back({"line-48", net::make_line(48)});
  cases.push_back({"ring-32", net::make_ring(32)});
  cases.push_back({"grid-6x6", net::make_grid(6, 6)});
  cases.push_back({"grid-10x10", net::make_grid(10, 10)});
  cases.push_back({"torus-6x6", net::make_torus(6, 6)});
  cases.push_back({"tree-63", net::make_binary_tree(63)});
  cases.push_back({"star-32", net::make_star(32)});
  cases.push_back({"barbell-12", net::make_barbell(12, 8)});
  cases.push_back({"geo-64", net::make_random_geometric(64, 0.2, rng)});
  cases.push_back({"gnp-48", net::make_random_connected(48, 0.08, rng)});

  bool all_ok = true;
  double max_norm = 0;
  for (auto& c : cases) {
    const std::size_t n = c.graph.node_count();
    const auto d = c.graph.diameter();
    for (const mac::Time fack : {1u, 4u}) {
      const auto inputs = harness::inputs_random(n, rng);
      const auto ids = harness::permuted_ids(n, rng);

      GstProbe probe;
      probe.graph = &c.graph;
      probe.ids = ids;
      probe.leader_id = n - 1;
      for (NodeId u = 0; u < n; ++u) {
        if (ids[u] == probe.leader_id) probe.leader_index = u;
      }
      probe.bfs = c.graph.bfs_distances(probe.leader_index);

      mac::UniformRandomScheduler sched(fack, rng());
      mac::Network net(c.graph, harness::wpaxos_factory(inputs, ids), sched);
      net.set_post_event_hook(
          [&probe](mac::Network& network) { probe.check(network); });
      net.run(mac::StopWhen::kAllDecided, 100'000'000);
      const auto verdict = verify::check_consensus(net, inputs);

      const std::uint64_t proposals =
          harness::collect_protocol_stats(net).proposals;

      const double norm = static_cast<double>(verdict.last_decision) /
                          (static_cast<double>(d) * fack);
      max_norm = std::max(max_norm, norm);
      if (!verdict.ok()) all_ok = false;

      table.row()
          .cell(c.name)
          .cell(n)
          .cell(d)
          .cell(static_cast<std::uint64_t>(fack))
          .cell(static_cast<std::uint64_t>(probe.leader_stable))
          .cell(static_cast<std::uint64_t>(probe.tree_stable))
          .cell(static_cast<std::uint64_t>(verdict.last_decision))
          .cell(norm)
          .cell(net.stats().broadcasts)
          .cell(proposals)
          .cell(net.stats().max_payload_bytes)
          .cell(verdict.ok());
    }
  }

  table.print();
  std::printf(
      "\nexpected shape: every run correct; normalized time bounded by a\n"
      "constant across families and sizes (O(D*F_ack), Theorem 4.6); GST\n"
      "phases (leader-stable <= tree-stable <= decided) each O(D*F_ack).\n"
      "max normalized time observed: %.2f. shape holds: %s\n",
      max_norm, all_ok ? "YES" : "NO");
  return all_ok ? 0 : 1;
}
