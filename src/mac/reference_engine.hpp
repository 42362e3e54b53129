// The original binary-heap MAC engine, frozen as the A/B baseline.
//
// This is the event core the calendar-queue engine (engine.hpp) replaced:
// a std::priority_queue of Events that each carry a
// shared_ptr<const Buffer> (refcount traffic on every sift), std::map
// flight tables, and per-broadcast schedule allocations. It is kept
// in-tree, bit-for-bit equivalent in observable behavior, for two jobs:
//   1. the differential tests prove the calendar engine pops the exact
//      same (t, kind, seq) event sequence and reaches identical decisions,
//      stats, and trace digests;
//   2. bench_micro benchmarks both engines in the same binary, so the
//      speedup claim is always measurable on the current tree.
// Do not optimize this file; its slowness is the point. CI's bench gate
// divides BM_EngineSyncRounds by BM_RefEngineSyncRounds, and the fuzz soak
// spends part of its time in reference replays, so a faster reference
// would move both.
//
// What is shared and what is not (design doc: "Shared bookkeeping" in
// engine.hpp). The bookkeeping comes from EngineCore, the same code
// Network runs: crash flags, processes, busy flags, decisions, undecided
// counts, InstanceStats, the Context's decide/busy/now, add_instance,
// crash handling, start order and the read accessors. The event core
// below is independent: heap, flight map, fan-out and fault emission,
// deliver and ack handling, and trace mixing. That is where the seeded
// bugs in CHANGES.md ("One bookkeeping core") showed a second
// implementation earns its keep: a reordered fault emission was caught by
// the differential replays alone. Bookkeeping bugs are a shared blind
// spot for those replays, so tests/test_mac_engine.cpp checks the model
// contract on each engine separately. This engine adds instances before
// the run only, never retires one, and leaves the flight footprint fields
// (*_pool_*) of InstanceStats at 0.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "mac/engine_core.hpp"
#include "mac/scheduler.hpp"

namespace amac::mac {

/// One simulated network driven by the legacy heap event core. Public
/// surface mirrors Network so tests and benches can drive either.
class ReferenceNetwork : public EngineCore {
 public:
  ReferenceNetwork(const net::Graph& graph, const ProcessFactory& factory,
                   Scheduler& scheduler,
                   const net::Graph* unreliable_overlay = nullptr);

  /// Identical contract to Network::add_instance (instance-major start
  /// order, same seq allocation); pre-run only on this engine — the
  /// replicated-log driver that launches mid-run targets Network.
  InstanceId add_instance(const ProcessFactory& factory) {
    AMAC_EXPECTS(!started_);
    return EngineCore::add_instance(factory);
  }

  void set_post_event_hook(std::function<void(ReferenceNetwork&)> hook) {
    post_event_hook_ = std::move(hook);
  }

  RunResult run(StopWhen until, Time max_time);

  [[nodiscard]] std::size_t in_flight_from(NodeId sender) const;

  void for_each_in_flight(
      const std::function<void(NodeId, NodeId, const util::Buffer&)>& fn)
      const;

 private:
  enum class RefEventKind : std::uint8_t { kDeliver = 0, kAck = 1,
                                           kCrash = 2 };

  struct RefEvent {
    Time t = 0;
    RefEventKind kind = RefEventKind::kDeliver;
    std::uint64_t seq = 0;  ///< FIFO tie-break within a tick
    NodeId node = kNoNode;  ///< receiver (deliver), sender (ack), crashee
    NodeId sender = kNoNode;               ///< deliver only
    std::uint64_t broadcast_id = 0;        ///< deliver/ack: which broadcast
    std::shared_ptr<const util::Buffer> payload;  ///< deliver only
    InstanceId instance = 0;               ///< deliver/ack: issuing instance
    bool reliable = true;                  ///< deliver: edge class

    [[nodiscard]] bool operator>(const RefEvent& o) const {
      if (t != o.t) return t > o.t;
      if (kind != o.kind) return kind > o.kind;
      return seq > o.seq;
    }
  };

  /// Bookkeeping for one broadcast's undelivered copies.
  struct Flight {
    NodeId sender = kNoNode;
    std::shared_ptr<const util::Buffer> payload;
    InstanceId instance = 0;
    std::vector<NodeId> pending;
    std::size_t undrained_events = 0;
  };

  void start_broadcast(NodeId u, InstanceId instance,
                       const util::Buffer& payload) override;
  void queue_crash(const CrashPlan& plan) override;
  void process_event(const RefEvent& e);
  void trace_event(const RefEvent& e);
  void push_event(RefEvent e);

  Scheduler* scheduler_;
  std::map<std::uint64_t, Flight> flights_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>
      events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_broadcast_id_ = 1;
  std::function<void(ReferenceNetwork&)> post_event_hook_;
};

}  // namespace amac::mac
