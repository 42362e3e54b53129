// The timed abstract-MAC-layer engine: a deterministic discrete-event
// simulator implementing the model of paper §2.
//
// Semantics implemented here, mapped to the paper's guarantees:
//   * broadcast(m) by u at time t: the scheduler picks receive delays for
//     every neighbor and an ack delay, receives within [t+1, t+ack] and the
//     ack at t+ack (same-tick receives are processed before acks), so every
//     non-faulty neighbor receives m in the interval between the broadcast
//     and the ack — the defining abstract MAC layer guarantee;
//   * additional broadcasts while one is outstanding are discarded;
//   * broadcast is not atomic: a node crashing mid-broadcast (CrashPlan)
//     cancels the deliveries scheduled after the crash tick while earlier
//     ones still happen — some neighbors receive, some never do;
//   * local computation takes zero time: callbacks run at the event's tick.
//
// ---------------------------------------------------------------------------
// Event-core design (the allocation-free hot path)
//
// Ordering contract. Events pop in ascending (t, kind, seq): deliveries
// before acks before crashes at the same tick, FIFO within a kind. Every
// queue implementation honors this bit-identically; the differential test
// in tests/test_mac_event_core.cpp proves it against the frozen
// ReferenceNetwork (reference_engine.hpp), the original shared_ptr +
// std::map + binary-heap engine kept in-tree as the A/B baseline.
//
// Calendar queue. Because F_ack bounds every delay, nearly all live events
// sit within [now, now + F_ack]: CalendarQueue (calendar_queue.hpp) keeps a
// power-of-two wheel of per-tick buckets sized from Scheduler::fack() —
// push and pop are O(1) array traffic — with a (t, kind, seq) min-heap
// spill-over for far-future events (crash plans, holdback releases). Bucket
// lane vectors are cleared, never freed, so steady state allocates nothing.
//
// Self-resizing wheel. The initial wheel span comes from fack() at
// construction; schedulers whose effective bound grows later (Holdback
// holds registered post-construction) would otherwise pay the overflow
// heap's log factor for every far event forever. The queue counts overflow
// pushes whose horizon a bigger wheel could absorb, and after a threshold
// rebuilds itself at the span covering the observed horizon in O(pending
// events) — one allocation, then allocation-free steady state again. Pop
// order is unaffected, so trace digests are bit-identical with the resize
// on, off (set_wheel_resize_enabled), or against ReferenceNetwork. The
// wheel_* fields of EngineStats report which path events took and whether
// a resize ran (benches and the fuzzer's soak summary read them).
//
// SoA broadcast fan-out. BroadcastSchedule is struct-of-arrays: parallel
// receivers[] / delays[] written by every scheduler into the engine's
// scratch, plus a dense uniform form (receivers[] + one shared delay) for
// lock-step schedulers. start_broadcast gives every copy of a broadcast
// the next seq and the next pending slot. In the uniform case the kept
// copies all share one tick, so they become ONE run-length queue entry
// (CalendarQueue::push_run, Event::run): the receivers go into the
// flight's pending vector, the queue stores a single 48-byte record, and
// a copy popped from the run finds its receiver at its seq-derived
// pending slot. Whether a tick lies in the wheel or spills to the overflow
// heap is the queue's decision alone, run or not.
//
// Retired runs. On a lock-step clique most relay copies land on slots
// the replicated log has already retired. When a popped copy's instance
// is retired and its run still holds more copies, the engine drops the
// rest of the run in one step (CalendarQueue::discard_run): it tombstones
// their pending slots, drains the flight, and folds each copy into the
// trace digest exactly as a pop would. Nothing else can pop between
// consecutive seqs of one (tick, kind), and every callback's broadcast
// lands at least one tick later, so pop order, trace, peak_events and
// every other EngineStats field are unchanged; only discarded_copies
// tells the paths apart. A post-event hook may observe in-flight state
// between copies, so with one installed every copy is popped.
//
// Flights own their payloads. A broadcast is one message (paper §2), so
// it is one Flight record: a broadcast copies its payload into its flight's
// Buffer (assign reuses the capacity the slot's earlier broadcasts grew),
// deliver events carry the flight's slot index instead of a shared_ptr, and
// receivers get the bytes by reference. Flight records live in a deque with
// one free list; the broadcast id is only carried for assertions. A slot is
// released when the flight's last deliver event drains, so it outlives
// every event that names it, and the deque never moves a live flight when
// a callback's own broadcast grows the table: a Packet's payload reference
// stays valid for the whole on_receive. Each (node, instance) pair has at
// most one live flight (a node's instance is busy until its ack, and the
// ack pops after the flight's last delivery), so the per-instance node
// state holds the sender's flight slot directly: in_flight_from is O(1) and
// for_each_in_flight is O(active flights), not O(all flights ever).
//
// Zero-allocation steady state. After warm-up (flight slots, lane and
// scratch capacities grown), the broadcast -> deliver -> ack cycle performs
// zero heap allocations: the scheduler writes into the engine's scratch
// BroadcastSchedule, payload bytes reuse flight-slot capacity, events are
// plain values in reused lanes, and Packet hands out references. Verified
// by the allocation-counting test in tests/test_mac_event_core.cpp.
//
// Unreliable links. An installed LinkFaultPlan (set_link_faults,
// link_faults.hpp) partitions every reliable fan-out at broadcast time by
// calling the plan's pure hash decision per (broadcast_id, sender,
// receiver): copies are kept, deferred past a transient outage window,
// permanently dropped, or duplicated at a bounded extra delay. An unfaulted
// fan-out is the same pipeline with every copy kept and no per-copy
// decision. Emission order is canonical and engine-independent — kept copies
// at their original ticks first (a uniform schedule's kept subset is one
// push_run entry), then deferred copies, then duplicates, each group in
// schedule index order, then best-effort overlay copies — and the ack is
// stretched to the latest emitted arrival so the layer's "receive before the
// sender's ack" guarantee survives deferral and duplication (permanent
// losses are the one guarantee the plan is allowed to break). Dropped copies
// consume no event seq and no flight bookkeeping; a fan-out whose copies are
// all lost acquires no flight at all. The drops/duplicates counters are
// identical across engines (they are decided, not raced), so differential
// fingerprints may include them; with an empty plan every byte of engine
// state and trace is identical to a fault-free build, which the pinned
// fuzz-corpus digest pins down.
//
// Instance multiplexing (consensus as a service). One Network can host
// multiple concurrent PROTOCOL INSTANCES — numbered slots of a replicated
// log (src/log/), each an independent run of a consensus algorithm — over
// the same nodes, topology, scheduler, fault plan, and event queue:
//   * Identity. Every broadcast, flight, deliver, and ack carries the
//     InstanceId of the instance that issued it (Event::instance,
//     Flight::instance). Crash events are node-level: a crash at u halts
//     u's process in EVERY instance, exactly once.
//   * Per-instance state. A node's process, busy flag, outstanding
//     broadcast, live flight slot, and decision are per (instance, node);
//     crash state is per node. Each instance therefore has its own logical
//     MAC channel per node: instance A being busy never discards instance
//     B's broadcast, which is what makes interleaved instances behave
//     exactly like solo runs (pinned by tests/test_multi_instance.cpp
//     under stateless schedulers and empty fault plans).
//   * Shared substrate. The event queue, seq counter, broadcast-id counter,
//     and flight slots are shared — instances multiplex over one MAC layer
//     rather than simulating parallel networks, so the service layer's
//     costs (queue pressure, flight occupancy) are the real multiplexed
//     costs. Per-instance InstanceStats track each instance's traffic and
//     the footprint of its live flights (live/peak slots and bytes).
//   * Lifecycle. add_instance() may be called before or DURING a run (a
//     replicated log launches pipelined slots as earlier slots decide);
//     mid-run instances get their on_start callbacks at the current tick.
//     retire_instance() destroys a finished instance's processes and
//     releases its flight slots as they drain; events addressed to a
//     retired instance are consumed as pure bookkeeping (no callbacks, no
//     delivery/ack counters).
//   * Completion hook. An instance COMPLETES when its undecided_alive
//     count reaches 0: on the decide of its last live undecided node, on a
//     crash that takes that node, or vacuously when add_instance finds no
//     live node. run() notes the completion and, after the event that
//     caused it (and after the post-event hook), calls the completion hook
//     once, however many instances that event completed. A driver that
//     only reacts to completions (the replicated log's slot loop) installs
//     itself there instead of on the every-event post-event hook. A
//     completion inside the completion hook itself — e.g. an instance
//     added there with every node crashed — is reported after the next
//     event.
//   * Digest neutrality. A single-instance Network is bit-identical to the
//     pre-instance engine: instance 0 is the implicit default everywhere,
//     the trace digest never mixes instance ids, and no counter moves —
//     the pinned 504-corpus fuzz digest is the regression oracle for this.
//     Multi-instance runs stay engine-differential: ReferenceNetwork
//     mirrors add_instance with the same seq allocation order.
//
// Large-n sizing and cache behavior (n = 4096-10k). A clique round is
// O(n^2) deliveries by definition — the engine's job is to keep the
// constant per delivery flat as n grows:
//   * Per-delivery bookkeeping is O(1). Flight::pending is append-only
//     with seq-derived tombstoning (see Flight below); the old
//     erase-by-find made each delivery O(fan-out), i.e. a whole clique
//     round O(n^3) in total — at n=4096 that term alone dwarfed the
//     simulation.
//   * Queue traffic is flat and small: a uniform fan-out is one
//     push_run entry, so a clique sync round queues n run entries (plus
//     n acks) and n^2 4-byte pending slots, not n^2 48-byte events. One
//     round of a 4096-clique (every node broadcasting once at t=0) raises
//     peak RSS by ~65 MB, almost all of it pending slots, where one event
//     per copy took ~830 MB (x86-64, -O2 build); peak_events still counts
//     the ~16.7M copies.
//   * Capacity warms once. Flight slots (pending vectors and payload
//     buffers) and lane storage all recycle; after the first large fan-out
//     the steady state allocates nothing at any n (allocation-counting test
//     covers a large-n warm-up explicitly).
//   * Degree-proportional work (the AMAC_CHECK has_edge scan per fan-out,
//     Graph::neighbors iteration) stays per-copy O(log deg)/O(1) and is
//     debug-gated where it isn't.
// ---------------------------------------------------------------------------
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "mac/calendar_queue.hpp"
#include "mac/event.hpp"
#include "mac/link_faults.hpp"
#include "mac/process.hpp"
#include "mac/scheduler.hpp"
#include "net/graph.hpp"
#include "util/hash.hpp"

namespace amac::mac {

/// A scheduled crash: `node` halts at tick `when` (before any event at a
/// strictly later tick; deliveries at `when` itself still occur).
struct CrashPlan {
  NodeId node = kNoNode;
  Time when = 0;
};

/// A node's decision record.
struct Decision {
  bool decided = false;
  Value value = -1;
  Time time = 0;
};

/// Aggregate accounting across a run.
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
struct EngineStats {
  std::uint64_t broadcasts = 0;
  std::uint64_t dropped_busy = 0;  ///< broadcasts discarded while busy
  std::uint64_t deliveries = 0;
  std::uint64_t acks = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t max_payload_bytes = 0;
  std::size_t peak_events = 0;  ///< high-water mark of queued events
  std::uint64_t wheel_pushes = 0;     ///< events placed directly in the wheel
  std::uint64_t overflow_pushes = 0;  ///< events spilled to the overflow heap
  std::uint64_t wheel_resizes = 0;    ///< self-resize rebuilds that ran
  std::uint64_t batch_pushes = 0;     ///< uniform fan-outs queued in the
                                      ///< wheel as one push_run entry
  /// Deliver copies of a retired instance dropped with the rest of their
  /// run-length entry (CalendarQueue::discard_run) instead of being popped
  /// one by one. Counted within wheel_pushes; never a delivery.
  std::uint64_t discarded_copies = 0;
  std::size_t wheel_span = 0;         ///< final wheel size in buckets
  /// Link-fault accounting (link_faults.hpp). Unlike the wheel_* fields
  /// these are decided by the plan's pure hash, not by queue internals, so
  /// they are identical across engines and safe to fingerprint.
  std::uint64_t drops = 0;       ///< copies lost or deferred by the plan
  std::uint64_t duplicates = 0;  ///< extra copies the plan scheduled
};

/// Per-instance slice of the engine's accounting: the traffic one protocol
/// instance generated plus the footprint of its live flights. The traffic
/// fields are engine-independent (both engines count them identically), so
/// multi-instance differential fingerprints may include them; the *_pool_*
/// flight fields stay 0 on ReferenceNetwork. The global EngineStats is NOT
/// the sum of these views — queue-path fields (wheel_*, peak_events) are
/// substrate-level and have no per-instance meaning.
struct InstanceStats {
  std::uint64_t broadcasts = 0;
  std::uint64_t dropped_busy = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t acks = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t max_payload_bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
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

/// One simulated network: topology + processes + scheduler.
class Network {
 public:
  /// Builds instance 0's process per node via `factory`. The scheduler is
  /// borrowed and must outlive the network. `unreliable_overlay`, if given,
  /// is a second edge set (disjoint from `graph`'s) on which deliveries are
  /// best-effort, decided per broadcast by Scheduler::schedule_unreliable —
  /// the dual-graph abstract MAC layer model the paper leaves as future
  /// work. Acks never wait for overlay deliveries beyond the reliable ack
  /// delay; overlay receives still land within the broadcast window.
  Network(const net::Graph& graph, const ProcessFactory& factory,
          Scheduler& scheduler,
          const net::Graph* unreliable_overlay = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a crash before running. Multiple crashes are allowed (the
  /// paper's impossibility needs one; the engine does not restrict). A
  /// crash is node-level: it halts the node's process in every instance.
  void schedule_crash(const CrashPlan& plan);

  /// Installs the link-fault plan (link_faults.hpp). Must be called before
  /// the first run(), like schedule_crash; pass the identical plan to both
  /// engines for differential replay.
  void set_link_faults(const LinkFaultPlan& plan);

  /// Adds a concurrent protocol instance (design doc: "Instance
  /// multiplexing") and returns its id. Callable before the first run or
  /// mid-run from a post-event hook: once the run has started, the new
  /// instance's on_start callbacks fire immediately at the current tick
  /// (crashed nodes get no process and no callbacks).
  InstanceId add_instance(const ProcessFactory& factory);

  /// Destroys a finished instance's processes. Subsequent events addressed
  /// to it are consumed as pure bookkeeping (flights still drain and
  /// release their slots, busy flags still clear) with no callbacks and no
  /// delivery/ack counters. Decisions and InstanceStats remain readable.
  void retire_instance(InstanceId instance);

  [[nodiscard]] std::size_t instance_count() const {
    return instances_.size();
  }

  /// Disables the calendar wheel's self-resize, pinning the overflow-heap
  /// fallback for far events. A/B benchmark support (BM_EngineLateHolds*);
  /// pop order — and therefore every digest — is identical either way.
  void set_wheel_resize_enabled(bool enabled) {
    events_.set_resize_enabled(enabled);
  }

  /// Invoked after every processed event; used by invariant monitors
  /// (e.g. the Lemma 4.2 response-count conservation check).
  void set_post_event_hook(std::function<void(Network&)> hook) {
    post_event_hook_ = std::move(hook);
  }

  /// Invoked once after each event that completed one or more instances
  /// (design doc: "Instance multiplexing › Completion hook"); used by the
  /// replicated-log driver to retire decided slots and launch pipelined
  /// ones mid-run.
  void set_completion_hook(std::function<void(Network&)> hook) {
    completion_hook_ = std::move(hook);
  }

  /// Runs until the stop condition, the event queue drains, or virtual time
  /// would exceed `max_time`.
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

  /// The process at u (for tests and invariant monitors). The two-argument
  /// form addresses a specific instance; retired instances have none.
  [[nodiscard]] Process& process(NodeId u) { return process(u, 0); }
  [[nodiscard]] const Process& process(NodeId u) const {
    return process(u, 0);
  }
  [[nodiscard]] Process& process(NodeId u, InstanceId instance);
  [[nodiscard]] const Process& process(NodeId u, InstanceId instance) const;

  /// Count of in-flight (scheduled, not yet delivered/cancelled) payload
  /// copies from `sender`'s current instance-0 broadcast (monitor support).
  /// O(1) via the per-sender flight index.
  [[nodiscard]] std::size_t in_flight_from(NodeId sender) const {
    return in_flight_from(sender, 0);
  }
  [[nodiscard]] std::size_t in_flight_from(NodeId sender,
                                           InstanceId instance) const;

  /// Visits every in-flight copy as (sender, receiver-not-yet-delivered,
  /// payload), across all instances (instance 0 first per sender). Used by
  /// the Lemma 4.2 response-count conservation monitor, whose invariant
  /// Q(p, s) sums over exactly these messages. Cost is O(active flights),
  /// not O(every flight in the simulation).
  void for_each_in_flight(
      const std::function<void(NodeId, NodeId, const util::Buffer&)>& fn)
      const;

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

 private:
  /// Node-level state: crash status only — everything protocol-facing is
  /// per (instance, node).
  struct NodeState {
    bool crashed = false;
    Time crash_time = kForever;
  };

  /// One node's state within one instance.
  struct InstanceNode {
    std::unique_ptr<Process> process;
    bool busy = false;
    std::uint64_t current_broadcast = 0;  ///< id of outstanding broadcast
    std::uint32_t flight_slot = kNoFlight;  ///< live flight, if any
    Decision decision;
  };

  struct Instance {
    std::vector<InstanceNode> nodes;
    InstanceStats stats;
    std::size_t undecided_alive = 0;
    bool retired = false;
  };

  /// One broadcast in slot storage: its payload bytes and the bookkeeping
  /// for its undelivered copies.
  ///
  /// `pending` is append-only while the flight is live: a delivered copy is
  /// tombstoned to kNoNode at its slot instead of erased, so the kDeliver
  /// hot path is O(1) instead of the O(fan-out) erase-by-find that made a
  /// clique broadcast O(n^2) per round. The slot for an event is derived,
  /// not stored: within one start_broadcast every deliver event takes a
  /// consecutive seq in exactly pending-append order (drops consume no seq,
  /// the ack's seq comes after), so event e owns pending[e.seq - first_seq].
  /// A uniform fan-out's copies share one run-length queue entry that names
  /// no receivers: a popped copy reads its receiver from its slot.
  /// `undrained_events` counts live (non-tombstoned) entries — the two
  /// counters move in lockstep because every pending entry is retired by
  /// exactly one deliver copy, popped or discarded with the rest of its
  /// run once its instance has retired.
  struct Flight {
    NodeId sender = kNoNode;
    std::uint64_t id = 0;                 ///< broadcast id (assertions)
    std::uint64_t first_seq = 0;          ///< seq of the first deliver event
    InstanceId instance = 0;              ///< owning protocol instance
    std::vector<NodeId> pending;          ///< receivers; kNoNode = delivered
    std::size_t undrained_events = 0;     ///< copies not yet popped/dropped
    util::Buffer payload;                 ///< capacity recycled with the slot
  };

  class NodeContext;  // Context implementation bound to one (node, instance)

  void start_broadcast(NodeId u, InstanceId instance,
                       const util::Buffer& payload);
  void process_event(const Event& e);
  void release_flight(std::uint32_t slot);
  void trace_event(const Event& e);

  const net::Graph* graph_;
  const net::Graph* overlay_ = nullptr;  ///< unreliable edges (optional)
  Scheduler* scheduler_;
  std::vector<NodeState> nodes_;
  std::vector<Instance> instances_;
  std::deque<Flight> flights_;  ///< slot storage: addresses never move
  std::vector<std::uint32_t> free_flights_;
  CalendarQueue events_;
  BroadcastSchedule schedule_scratch_;
  std::vector<std::pair<NodeId, Time>> unreliable_scratch_;
  LinkFaultPlan faults_;
  std::vector<LinkFaultDecision> fault_scratch_;  ///< reused per fan-out
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_broadcast_id_ = 1;
  Time now_ = 0;
  std::size_t undecided_alive_ = 0;  ///< sum across live instances
  EngineStats stats_;
  std::function<void(Network&)> post_event_hook_;
  std::function<void(Network&)> completion_hook_;
  bool completed_ = false;  ///< an instance completed since the last hook
  bool started_ = false;
  bool trace_enabled_ = false;
  util::Hasher trace_hasher_;
};

}  // namespace amac::mac
