// The bookkeeping both engines share: the per-node and per-(instance, node)
// state of the paper §2 model, and the one surface tests, oracles and the
// log read it through. Network (engine.hpp) and ReferenceNetwork
// (reference_engine.hpp) derive from EngineCore and keep only their event
// cores: queue, flights, fan-out, fault emission, deliver and ack handling,
// and trace mixing. Design doc: "Shared bookkeeping" in engine.hpp.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "mac/event.hpp"
#include "mac/link_faults.hpp"
#include "mac/process.hpp"
#include "net/graph.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace amac::mac {

/// A scheduled crash: `node` halts at tick `when` (before any event at a
/// strictly later tick; deliveries at `when` itself still occur).
struct CrashPlan {
  NodeId node = kNoNode;
  Time when = 0;
};

/// A node's decision record: the one lasting output of a process (paper
/// §2's irrevocable decide), kept for every instance, retired ones too.
struct Decision {
  bool decided = false;
  Value value = -1;
  Time time = 0;
};

/// The traffic ledger: what broadcasts, receives and acks (paper §2) cost.
/// Every such event belongs to exactly one protocol instance, so the engine
/// counts it once, in that instance's InstanceStats; EngineStats carries
/// the fold over every instance. Both engines count these fields
/// identically, and the link-fault ones are decided by the plan's pure hash,
/// not by queue internals, so differential fingerprints may include all
/// eight.
struct TrafficStats {
  /// Folds `from` in: counters add, max_payload_bytes takes the larger.
  TrafficStats& operator+=(const TrafficStats& from);

  std::uint64_t broadcasts = 0;
  std::uint64_t dropped_busy = 0;  ///< broadcasts discarded while busy
  std::uint64_t deliveries = 0;
  std::uint64_t acks = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t max_payload_bytes = 0;
  std::uint64_t drops = 0;       ///< copies lost or deferred by the plan
  std::uint64_t duplicates = 0;  ///< extra copies the plan scheduled

  bool operator==(const TrafficStats&) const = default;
};

/// Aggregate accounting across a run. The traffic fields are the fold of
/// every instance's ledger, retired and relaunched instances included (a
/// retired one's was folded into a running total when it retired); like
/// the queue fields, they are written when run() returns.
///
/// The wheel_*, batch_pushes and discarded_copies fields describe the
/// calendar queue only (always 0 on ReferenceNetwork, which has no wheel);
/// differential fingerprints and cross-engine equality checks must not
/// include them. The wheel_* and batch_pushes fields are, however, exactly
/// the run-shape features the fuzzer's CoverageSignature consumes
/// (fuzz/fuzzer.hpp): which queue path a scenario drove is the coverage
/// signal that steers mutation. Every queue counter is in copy units: a
/// run-length entry of k copies counts k wheel pushes and k toward
/// peak_events, exactly as k separate events would.
struct EngineStats : TrafficStats {
  std::size_t peak_events = 0;  ///< high-water mark of queued events
  std::uint64_t wheel_pushes = 0;     ///< events placed directly in the wheel
  std::uint64_t overflow_pushes = 0;  ///< events spilled to the overflow heap
  std::uint64_t batch_pushes = 0;     ///< uniform fan-outs queued in the
                                      ///< wheel as one push_run entry
  /// Deliver copies of a retired instance dropped with the rest of their
  /// run-length entry (CalendarQueue::discard_run) instead of being popped
  /// one by one. Counted within wheel_pushes; never a delivery.
  std::uint64_t discarded_copies = 0;
};

/// Per-instance slice of the engine's accounting: the traffic one protocol
/// instance generated (the only place the engine counts it) plus the
/// footprint of its live flights. The *_pool_* flight fields stay 0 on
/// ReferenceNetwork. EngineStats' traffic fields are the sum of these
/// views; its queue-path fields (wheel_*, peak_events) are substrate-level
/// and have no per-instance meaning. Readable while the instance is live
/// only: retiring it folds the traffic into EngineStats and frees the rest.
struct InstanceStats : TrafficStats {
  /// Flight accounting: flight slots, and the payload bytes they hold,
  /// currently owned by this instance's live broadcasts, and their
  /// high-water marks.
  std::size_t live_pool_slots = 0;
  std::size_t peak_pool_slots = 0;
  std::size_t live_pool_bytes = 0;
  std::size_t peak_pool_bytes = 0;
};

/// When `run` should stop (besides the time horizon).
enum class StopWhen {
  kAllDecided,  ///< every non-crashed node has decided (in every instance)
  kQuiescent,   ///< no events left
};

struct RunResult {
  bool condition_met = false;  ///< stop condition reached within the horizon
  Time end_time = 0;           ///< virtual time when the run stopped
};

/// Crash flags, processes, busy flags, decisions and per-instance ledgers,
/// with the Context's decide/busy/now and the read accessors. An engine
/// supplies the two entry points into its event core: start_broadcast (a
/// Context's broadcast) and queue_crash (schedule_crash's event).
class EngineCore {
 public:
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Registers a crash before running. Multiple crashes are allowed (the
  /// paper's impossibility needs one; the engine does not restrict). A
  /// crash is node-level: it halts the node's process in every instance.
  void schedule_crash(const CrashPlan& plan);

  /// Installs the link-fault plan (link_faults.hpp). Must be called before
  /// the first run(), like schedule_crash; pass the identical plan to both
  /// engines for differential replay.
  void set_link_faults(const LinkFaultPlan& plan);

  [[nodiscard]] std::size_t instance_count() const {
    return instance_slot_.size();
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Decision& decision(NodeId u) const {
    return decision(u, 0);
  }
  [[nodiscard]] const Decision& decision(NodeId u, InstanceId instance) const;
  [[nodiscard]] bool crashed(NodeId u) const;
  /// As of the last run()'s return (the traffic fields are folded there).
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  /// A live instance's ledger; a retired instance has none.
  [[nodiscard]] const InstanceStats& instance_stats(InstanceId instance) const;
  [[nodiscard]] const net::Graph& graph() const { return *graph_; }

  /// The process at u (for tests and invariant monitors). The two-argument
  /// form addresses a specific instance; retired instances have none.
  [[nodiscard]] Process& process(NodeId u) { return process(u, 0); }
  [[nodiscard]] const Process& process(NodeId u) const {
    return process(u, 0);
  }
  [[nodiscard]] Process& process(NodeId u, InstanceId instance);
  [[nodiscard]] const Process& process(NodeId u, InstanceId instance) const;

  /// True once every non-crashed node decided in every live instance.
  [[nodiscard]] bool all_alive_decided() const;

  /// True once every non-crashed node decided in `instance` (vacuously true
  /// for a retired instance).
  [[nodiscard]] bool instance_all_decided(InstanceId instance) const;

  /// Starts folding every processed event (t, kind, node, sender,
  /// broadcast id, seq, payload bytes) into a digest. Used by the A/B
  /// differential tests to prove event-order equivalence across engines.
  /// Deliberately does NOT mix Event::instance: a single-instance run's
  /// digest is bit-identical to the pre-instance engine's, and instance
  /// identity is already pinned by per-instance decisions/stats.
  void enable_trace_digest() { trace_enabled_ = true; }
  [[nodiscard]] std::uint64_t trace_digest() const {
    return trace_hasher_.digest();
  }

 protected:
  /// Node-level state: crash status only — everything protocol-facing is
  /// per (instance, node).
  struct NodeState {
    bool crashed = false;
    Time crash_time = kForever;
  };

  /// One node's live state within one live instance: what only the
  /// engine's own events read. The node's decision is durable and lives in
  /// decisions_ instead.
  struct InstanceNode {
    std::unique_ptr<Process> process;
    std::uint64_t current_broadcast = 0;  ///< id of outstanding broadcast
    bool busy = false;
  };
  // n of these per live instance: pinned so a layout change here is
  // deliberate, as event.hpp pins Event.
  static_assert(sizeof(InstanceNode) == 24);

  /// instance_slot_ entry of a retired instance.
  static constexpr std::uint32_t kRetired = static_cast<std::uint32_t>(-1);

  /// A live instance's header in its pool slot: its ledger and undecided
  /// count. A free slot's header is zeroed, so it counts toward no total.
  struct Instance {
    InstanceStats stats;
    std::uint32_t undecided_alive = 0;
  };

  /// The Context a callback gets, bound to one (node, instance): decide,
  /// busy and now are core state; broadcast enters the engine's event core.
  class NodeContext final : public Context {
   public:
    NodeContext(EngineCore& core, NodeId node, InstanceId instance)
        : core_(&core), node_(node), instance_(instance) {}

    void broadcast(const util::Buffer& payload) override {
      core_->start_broadcast(node_, instance_, payload);
    }
    void decide(Value v) override;
    [[nodiscard]] bool busy() const override {
      return core_->live_node(instance_, node_).busy;
    }
    [[nodiscard]] Time now() const override { return core_->now_; }

   private:
    EngineCore* core_;
    NodeId node_;
    InstanceId instance_;
  };

  /// Validates the optional best-effort overlay; allocates nothing.
  EngineCore(const net::Graph& graph, const net::Graph* unreliable_overlay);
  ~EngineCore() = default;

  /// Sizes the node table and builds instance 0. An engine calls it last
  /// in its constructor: Network allocates its calendar wheel first, and
  /// the log's heap-in-use figures (perfsuite's heap_kb_per_kslot) depend
  /// on that allocation order.
  void build_nodes(const ProcessFactory& factory);

  /// The engine's event core: a Context's broadcast, and the crash event
  /// schedule_crash queues.
  virtual void start_broadcast(NodeId u, InstanceId instance,
                               const util::Buffer& payload) = 0;
  virtual void queue_crash(const CrashPlan& plan) = 0;

  /// Adds an instance in a free pool slot (or a new one); once the run has
  /// started, its live nodes' on_start callbacks fire at the current tick.
  InstanceId add_instance(const ProcessFactory& factory);
  /// Folds the instance's traffic into retired_traffic_, resets its header
  /// and node table (destroying its processes), frees its slot for the next
  /// add_instance and marks it kRetired. Only its decisions remain.
  void retire_instance(InstanceId instance);

  [[nodiscard]] bool retired(InstanceId instance) const {
    return instance_slot_[instance] == kRetired;
  }
  /// The header and node u's state of `instance`, which must be live.
  /// add_instance may grow the pool and move every slot: hold no reference
  /// across it.
  [[nodiscard]] Instance& live_instance(InstanceId instance) {
    return pool_[slot(instance)];
  }
  [[nodiscard]] const Instance& live_instance(InstanceId instance) const {
    return pool_[slot(instance)];
  }
  [[nodiscard]] InstanceNode& live_node(InstanceId instance, NodeId u) {
    return tables_[slot(instance) * nodes_.size() + u];
  }
  [[nodiscard]] const InstanceNode& live_node(InstanceId instance,
                                              NodeId u) const {
    return tables_[slot(instance) * nodes_.size() + u];
  }

  /// First call only: on_start for every pre-run instance, instance-major
  /// (each instance's nodes 0..n-1 before the next instance).
  void start_run();
  /// Applies a crash event: the node leaves every live instance's
  /// undecided set at once. A repeated crash is a no-op.
  void crash(NodeId u);
  /// Folds every instance's traffic into stats_ and reports the run.
  RunResult finish_run(bool met);

  const net::Graph* graph_;
  const net::Graph* overlay_;  ///< unreliable edges (optional)
  std::vector<NodeState> nodes_;
  /// Per instance ever added: its pool slot, or kRetired.
  std::vector<std::uint32_t> instance_slot_;
  /// Every instance's decisions, instance-major: node u of instance i at
  /// i * n + u. Chunked, so a growing column never moves or copies what
  /// it holds and decision() references stay valid.
  std::deque<Decision> decisions_;
  /// The pool of live instances: slot k holds header pool_[k] and node
  /// table tables_[k * n, (k + 1) * n), as many slots as were ever live at
  /// once.
  std::vector<Instance> pool_;
  std::vector<InstanceNode> tables_;
  std::vector<std::uint32_t> free_slots_;  ///< reset, for add_instance
  TrafficStats retired_traffic_;  ///< every retired instance's, folded
  LinkFaultPlan faults_;
  Time now_ = 0;
  EngineStats stats_;
  bool completed_ = false;  ///< an instance completed since the last hook
  bool started_ = false;
  bool trace_enabled_ = false;
  util::Hasher trace_hasher_;

 private:
  void start_instance(InstanceId instance);
  [[nodiscard]] std::size_t slot(InstanceId instance) const {
    const std::uint32_t k = instance_slot_[instance];
    AMAC_CHECK_ENSURES(k != kRetired);
    return k;
  }
};

}  // namespace amac::mac
