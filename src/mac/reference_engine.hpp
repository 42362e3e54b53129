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
// Do not optimize this file; its slowness is the point.
//
// Instance multiplexing parity: the reference engine mirrors Network's
// add_instance / decision(u, i) / process(u, i) surface with the identical
// seq-allocation and on_start order, so multi-instance runs stay
// differential-testable (tests/test_multi_instance.cpp). Per-instance
// InstanceStats cover the engine-independent traffic fields; the flight
// footprint fields (*_pool_*) stay 0 here (this engine does not track them).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "mac/engine.hpp"  // CrashPlan, Decision, EngineStats, StopWhen
#include "mac/process.hpp"
#include "mac/scheduler.hpp"
#include "net/graph.hpp"
#include "util/hash.hpp"

namespace amac::mac {

/// One simulated network driven by the legacy heap event core. Public
/// surface mirrors Network so tests and benches can drive either.
class ReferenceNetwork {
 public:
  ReferenceNetwork(const net::Graph& graph, const ProcessFactory& factory,
                   Scheduler& scheduler,
                   const net::Graph* unreliable_overlay = nullptr);

  ReferenceNetwork(const ReferenceNetwork&) = delete;
  ReferenceNetwork& operator=(const ReferenceNetwork&) = delete;

  void schedule_crash(const CrashPlan& plan);

  /// Identical contract to Network::set_link_faults: the same plan on both
  /// engines must yield bit-identical traces (the decisions are pure
  /// hashes, and both engines emit faulted copies in the same canonical
  /// order: kept, deferred, duplicates).
  void set_link_faults(const LinkFaultPlan& plan);

  /// Identical contract to Network::add_instance (instance-major start
  /// order, same seq allocation); pre-run only on this engine — the
  /// replicated-log driver that launches mid-run targets Network.
  InstanceId add_instance(const ProcessFactory& factory);

  [[nodiscard]] std::size_t instance_count() const {
    return instances_.size();
  }

  void set_post_event_hook(std::function<void(ReferenceNetwork&)> hook) {
    post_event_hook_ = std::move(hook);
  }

  RunResult run(StopWhen until, Time max_time);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Decision& decision(NodeId u) const {
    return decision(u, 0);
  }
  [[nodiscard]] const Decision& decision(NodeId u, InstanceId instance) const;
  [[nodiscard]] bool crashed(NodeId u) const;
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] const InstanceStats& instance_stats(InstanceId instance) const;
  [[nodiscard]] const net::Graph& graph() const { return *graph_; }

  [[nodiscard]] Process& process(NodeId u) { return process(u, 0); }
  [[nodiscard]] const Process& process(NodeId u) const {
    return process(u, 0);
  }
  [[nodiscard]] Process& process(NodeId u, InstanceId instance);
  [[nodiscard]] const Process& process(NodeId u, InstanceId instance) const;

  [[nodiscard]] std::size_t in_flight_from(NodeId sender) const;

  void for_each_in_flight(
      const std::function<void(NodeId, NodeId, const util::Buffer&)>& fn)
      const;

  [[nodiscard]] bool all_alive_decided() const;
  [[nodiscard]] bool instance_all_decided(InstanceId instance) const;

  void enable_trace_digest() { trace_enabled_ = true; }
  [[nodiscard]] std::uint64_t trace_digest() const {
    return trace_hasher_.digest();
  }

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

  /// Node-level state: crash status only (mirrors Network).
  struct NodeState {
    bool crashed = false;
    Time crash_time = kForever;
  };

  struct InstanceNode {
    std::unique_ptr<Process> process;
    bool busy = false;
    std::uint64_t current_broadcast = 0;
    Decision decision;
  };

  struct Instance {
    std::vector<InstanceNode> nodes;
    InstanceStats stats;
    std::size_t undecided_alive = 0;
  };

  /// Bookkeeping for one broadcast's undelivered copies.
  struct Flight {
    NodeId sender = kNoNode;
    std::shared_ptr<const util::Buffer> payload;
    InstanceId instance = 0;
    std::vector<NodeId> pending;
    std::size_t undrained_events = 0;
  };

  class NodeContext;

  void start_broadcast(NodeId u, InstanceId instance,
                       const util::Buffer& payload);
  void process_event(const RefEvent& e);
  void trace_event(const RefEvent& e);
  void push_event(RefEvent e);

  const net::Graph* graph_;
  const net::Graph* overlay_ = nullptr;
  Scheduler* scheduler_;
  std::vector<NodeState> nodes_;
  std::vector<Instance> instances_;
  LinkFaultPlan faults_;
  std::map<std::uint64_t, Flight> flights_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>
      events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_broadcast_id_ = 1;
  Time now_ = 0;
  std::size_t undecided_alive_ = 0;
  EngineStats stats_;
  std::function<void(ReferenceNetwork&)> post_event_hook_;
  bool started_ = false;
  bool trace_enabled_ = false;
  util::Hasher trace_hasher_;
};

}  // namespace amac::mac
