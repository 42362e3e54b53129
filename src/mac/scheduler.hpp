// The message scheduler interface — the model's source of non-determinism.
//
// Paper §2: the scheduler may deliver a broadcast's copies to neighbors in
// any order and at any times, and must deliver the ack after all copies, at
// most F_ack after the broadcast. All of the paper's lower-bound proofs are
// statements about specific adversarial schedulers; this interface lets each
// proof's adversary be instantiated as an object (see schedulers.hpp).
//
// Scratch-buffer calling convention: `schedule` writes into a caller-owned
// BroadcastSchedule. The engine keeps one scratch schedule for its whole
// run, so the per-broadcast delay vector is allocated once and reused for
// millions of broadcasts (the old by-value API allocated per broadcast).
// Implementations must treat `out` as garbage on entry: call `out.reset()`
// (or overwrite every field) before filling it.
#pragma once

#include <utility>
#include <vector>

#include "mac/types.hpp"
#include "util/assert.hpp"

namespace amac::mac {

/// The scheduler's answer for one broadcast: when each neighbor receives the
/// message and when the sender is acked, as delays from the broadcast time.
/// Contract: ack_delay >= 1, and 1 <= delay <= ack_delay for every receive
/// (receives happen within the [broadcast, ack] interval; the engine orders
/// same-tick receives before acks).
///
/// Struct-of-arrays layout: `receivers[i]` gets the message `delay(i)` ticks
/// after the broadcast. Two forms share the type:
///   * dense/uniform — every receiver shares one delay (`uniform` set,
///     `delays` empty, `uniform_delay` holds the value). Schedulers that
///     emit lock-step delays (synchronous rounds) fill this form
///     with a single bulk receiver copy, and the engine fans the broadcast
///     out through a batch push into one calendar-wheel bucket;
///   * per-receiver — `delays[i]` parallels `receivers[i]` (`uniform`
///     clear). The engine's fan-out loop then reads two flat arrays instead
///     of chasing (node, delay) pairs.
/// Either way, entry order is the scheduler's emission order — the engine
/// assigns event seq numbers in this order, so it is part of the
/// deterministic trace contract.
struct BroadcastSchedule {
  Time ack_delay = 1;
  std::vector<NodeId> receivers;
  std::vector<Time> delays;  ///< empty iff `uniform`
  Time uniform_delay = 0;    ///< every receiver's delay, iff `uniform`
  bool uniform = false;

  /// Reusable-scratch reset: clears the arrays but keeps their capacity.
  void reset() {
    ack_delay = 1;
    receivers.clear();
    delays.clear();
    uniform_delay = 0;
    uniform = false;
  }

  [[nodiscard]] std::size_t size() const { return receivers.size(); }
  [[nodiscard]] bool empty() const { return receivers.empty(); }

  [[nodiscard]] Time delay(std::size_t i) const {
    return uniform ? uniform_delay : delays[i];
  }

  /// Dense fast path: all of `neighbors` receive after the same delay. One
  /// bulk copy of the receiver ids; no per-receiver delay storage.
  void assign_uniform(const std::vector<NodeId>& neighbors, Time d) {
    receivers.assign(neighbors.begin(), neighbors.end());
    delays.clear();
    uniform_delay = d;
    uniform = true;
  }

  /// Appends one per-receiver entry (requires the per-receiver form).
  void push(NodeId v, Time d) {
    AMAC_EXPECTS(!uniform);
    receivers.push_back(v);
    delays.push_back(d);
  }

  /// Converts the dense form into explicit per-receiver delays so a caller
  /// (e.g. HoldbackScheduler) can adjust individual entries. No-op when
  /// already per-receiver.
  void densify() {
    if (!uniform) return;
    delays.assign(receivers.size(), uniform_delay);
    uniform = false;
  }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Schedules the broadcast `sender` starts at `now` toward `neighbors`,
  /// writing into the caller-owned scratch `out` (reset it first!). Must
  /// produce one receive entry per neighbor.
  virtual void schedule(NodeId sender, Time now,
                        const std::vector<NodeId>& neighbors,
                        BroadcastSchedule& out) = 0;

  /// Best-effort deliveries over the unreliable overlay (dual-graph model):
  /// writes into `out` the subset of `overlay_neighbors` that actually
  /// receive this broadcast, with delays in [1, ack_delay]. The scheduler
  /// may deliver all, some, or none — that is the model's entire guarantee.
  /// Default: nothing is delivered. `out` is caller-owned scratch.
  virtual void schedule_unreliable(NodeId sender, Time now,
                                   const std::vector<NodeId>& overlay_neighbors,
                                   Time ack_delay,
                                   std::vector<std::pair<NodeId, Time>>& out) {
    (void)sender;
    (void)now;
    (void)overlay_neighbors;
    (void)ack_delay;
    out.clear();
  }

  /// The F_ack bound this scheduler guarantees: no ack is delayed by more
  /// than this. Unknown to processes; used by experiments to normalize time
  /// and by the engine to size its calendar-queue wheel.
  [[nodiscard]] virtual Time fack() const = 0;

  /// Convenience wrapper returning a fresh schedule by value (tests and
  /// one-shot callers; the engine hot path uses the scratch overload).
  [[nodiscard]] BroadcastSchedule make_schedule(
      NodeId sender, Time now, const std::vector<NodeId>& neighbors) {
    BroadcastSchedule s;
    schedule(sender, now, neighbors, s);
    return s;
  }
};

}  // namespace amac::mac
