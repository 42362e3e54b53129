// E5 — Theorem 4.1: two-phase consensus solves single-hop consensus in
// O(F_ack) time (constant 2), with unique ids and NO knowledge of n.
//
// Sweep n x F_ack x scheduler; report decision time in F_ack units. The
// paper's shape: time <= 2*F_ack always, independent of n — contrast with
// the asynchronous broadcast model where this setting is impossible
// (Abboud et al., discussed in §4.1).
#include <cstdio>

#include "harness/experiment.hpp"
#include "net/topologies.hpp"
#include "util/table.hpp"

int main() {
  using namespace amac;

  std::printf(
      "E5 / Theorem 4.1: two-phase consensus on cliques, decision time in\n"
      "F_ack units (bound: 2.00), across schedulers and sizes.\n\n");

  util::Table table({"n", "F_ack", "scheduler", "time", "time/F_ack",
                     "decision", "max payload B", "ok"});

  bool all_expected = true;
  util::Rng rng(20240609);
  for (const std::size_t n : {2u, 8u, 32u, 128u, 512u}) {
    for (const mac::Time fack : {1u, 8u, 32u}) {
      const auto g = net::make_clique(n);
      const auto inputs = harness::inputs_random(n, rng);

      struct Sched {
        const char* name;
        std::unique_ptr<mac::Scheduler> s;
      };
      std::vector<Sched> schedulers;
      schedulers.push_back(
          {"synchronous", std::make_unique<mac::SynchronousScheduler>(fack)});
      schedulers.push_back({"random", std::make_unique<
                                          mac::UniformRandomScheduler>(
                                          fack, rng())});

      for (auto& [name, sched] : schedulers) {
        const auto outcome = harness::run_consensus(
            g, harness::two_phase_factory(inputs), *sched, inputs,
            100 * fack);
        const double units =
            static_cast<double>(outcome.verdict.last_decision) /
            static_cast<double>(fack);
        if (!outcome.verdict.ok() || units > 2.0) all_expected = false;
        table.row()
            .cell(n)
            .cell(static_cast<std::uint64_t>(fack))
            .cell(name)
            .cell(static_cast<std::uint64_t>(outcome.verdict.last_decision))
            .cell(units)
            .cell(static_cast<std::int64_t>(*outcome.verdict.decision))
            .cell(outcome.stats.max_payload_bytes)
            .cell(outcome.verdict.ok());
      }
    }
  }

  table.print();
  std::printf(
      "\nexpected shape: every run decides within 2*F_ack regardless of n\n"
      "(O(F_ack), constant 2 — paper §4.1); payloads hold one id + O(1)\n"
      "bytes. shape holds: %s\n",
      all_expected ? "YES" : "NO");
  return all_expected ? 0 : 1;
}
