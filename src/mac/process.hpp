// The process model: algorithms as deterministic event-driven state machines.
//
// A Process interacts with the world only through its Context:
//   * broadcast(payload) — the abstract MAC layer's acknowledged local
//     broadcast. If a broadcast is already outstanding the new one is
//     DISCARDED, exactly as the model specifies (paper §2).
//   * decide(v) — the single irrevocable consensus decision.
//   * now() — an opaque timestamp (used only by wPAXOS's change service,
//     mirroring Algorithm 3's time_stamp(); algorithms never learn F_ack).
//
// Determinism + value-style cloning + digest() make whole-system state
// snapshots possible, which the FLP valency explorer (§3.1) and the
// indistinguishability experiments (Lemma 3.6) rely on.
#pragma once

#include <functional>
#include <memory>

#include "mac/types.hpp"
#include "util/hash.hpp"

namespace amac::mac {

/// The services the environment offers a process. Implemented by both the
/// timed engine and the valid-step engine.
class Context {
 public:
  virtual ~Context() = default;

  /// Acknowledged local broadcast. Discarded (with accounting) if a
  /// broadcast is already outstanding. The engine copies the bytes into the
  /// broadcast's flight, so callers may reuse (or let die) their buffer
  /// freely — a process that keeps a scratch buffer broadcasts without
  /// allocating.
  virtual void broadcast(const util::Buffer& payload) = 0;

  /// Irrevocable decision. A process may decide at most once.
  virtual void decide(Value v) = 0;

  /// True while a broadcast is outstanding (no ack yet).
  [[nodiscard]] virtual bool busy() const = 0;

  /// Opaque current timestamp. Monotone; carries no F_ack information.
  [[nodiscard]] virtual Time now() const = 0;
};

/// Algorithm-level ("protocol") run-shape counters, aggregated across every
/// node of a finished run. Where EngineStats describes which QUEUE paths a
/// run drove, ProtocolStats describes which ALGORITHM corners it reached —
/// wPAXOS proposal/round structure, Ben-Or coin-flip depth, gather/
/// stabilization progress — so the fuzzer's coverage signature can chase
/// consensus corners, not just calendar-queue corners. Collection is a
/// post-run const read of existing observables: it must never perturb a
/// run (pinned by the determinism regression in tests/test_fuzz_smoke.cpp).
struct ProtocolStats {
  std::uint64_t max_round = 0;     ///< deepest round / phase / proposal tag
                                   ///< any node reached
  std::uint64_t coin_flips = 0;    ///< total randomness consumed (Ben-Or)
  std::uint64_t proposals = 0;     ///< total proposals started (wPAXOS)
  std::uint64_t change_events = 0; ///< total change-service events (wPAXOS)
  std::uint64_t max_learned = 0;   ///< widest gather set any node accumulated
                                   ///< (flooding / stability / two-phase ids)
  std::uint64_t quiet_resets = 0;  ///< stability: quiet-phase counters that
                                   ///< late learning pulled back to zero
};

/// A deterministic algorithm instance running at one node.
class Process {
 public:
  virtual ~Process() = default;

  /// Called once at time 0 before any message events.
  virtual void on_start(Context& ctx) = 0;

  /// A neighbor's broadcast reached this node.
  virtual void on_receive(const Packet& packet, Context& ctx) = 0;

  /// The MAC layer acknowledged this node's outstanding broadcast: every
  /// (non-crashed) neighbor has received it.
  virtual void on_ack(Context& ctx) = 0;

  /// Deep copy (for the valid-step engine's state snapshots).
  [[nodiscard]] virtual std::unique_ptr<Process> clone() const = 0;

  /// Mixes the full local state into `h`. Two processes with equal digests
  /// must behave identically on equal future event sequences.
  virtual void digest(util::Hasher& h) const = 0;

  /// Folds this node's algorithm-level counters into `out`: depth fields
  /// max-merge, totals sum. Default: the algorithm exposes no protocol
  /// dimension. Must be a pure const read — collecting (or not collecting)
  /// these stats may never change a run's behavior.
  virtual void protocol_stats(ProtocolStats& out) const {
    static_cast<void>(out);
  }
};

/// Builds the process for a given node index. Knowledge discipline: the
/// factory closure decides what each algorithm learns (its id, n, D, initial
/// value); nothing else is ambient.
using ProcessFactory = std::function<std::unique_ptr<Process>(NodeId)>;

}  // namespace amac::mac
