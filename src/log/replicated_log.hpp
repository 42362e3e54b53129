// ReplicatedLog: consensus as a service over the multiplexed MAC engine.
//
// PRs 1-8 ran consensus as a one-shot: one Network, one protocol instance,
// one decided value. This driver turns the same engine into a service — a
// numbered sequence of SLOT instances multiplexed over one Network (see
// "Instance multiplexing" in mac/engine.hpp), each slot deciding which
// batch of client ops commits at its position, with a deterministic
// KvStateMachine applying decided batches in slot order.
//
// Cost model (the A/B the log-service bench pins):
//   * Slot 0 and every `lease_slots`-th slot run FULL wPAXOS (paper §4.2)
//     as an ELECTIVE slot: node u proposes encode(slot, u) — the batch id
//     with u's own id in the low bits — so the winning proposer's identity
//     rides the decided value. The decide doubles as a LEADER LEASE held
//     by decode_leader(decision): under identity ids the max-id live node
//     wins Algorithm 2's Omega duel, so a crash-free run leases node n-1,
//     and a run that lost its leader RE-ELECTS the max-id survivor at the
//     next renewal slot.
//   * The other slots ride the lease: a CommitFlood instance in which the
//     leased leader decides immediately and floods the batch id, every
//     node deciding on first receipt. One dissemination wave per slot
//     instead of a full proposer/acceptor exchange — the Lemma 4.2-style
//     amortization: coordination is paid once per lease, not once per op.
//   * Batching multiplies the win: one decided value commits `batch_size`
//     client ops, so bytes-per-op and slots-per-op both shrink.
//   With lease_slots = 1 and batch_size = 1 the same code path IS the
//   naive one-op-per-slot service, which is how the bench A/Bs them in one
//   binary.
//
// Pipelining: up to `window` slot instances are in flight concurrently —
// later slots launch mid-run (from the engine's completion hook) as
// earlier ones decide. Decides may land out of slot order; the state
// machine still applies batches in slot order (contiguous-prefix rule).
//
// Reads: submit_read(key) is a leader read with a read-index freshness
// bound — the read binds to the latest DECIDED slot at issue time and is
// only served once the applied prefix passes that slot, so it can never
// observe a state older than anything already decided when it was issued.
// `LogConfig::read_every` issues such reads from inside drive() at a
// deterministic per-slot cadence (benches fold the latencies into p50/p99).
//
// Correctness: every decided slot is judged by the per-instance oracle
// (verify::check_consensus(net, instance, inputs)) — per-slot agreement
// and validity are what make a log of consensus instances a correct log.
// A slot whose nodes all crashed before deciding holds no decision, so it
// is not judged: it stays in flight like any stall. If a leased slot
// stalls (a crashed leader floods nothing and the event queue drains),
// recovery relaunches the slot as a full wPAXOS instance —
// the slow path is always safe, the fast path is merely fast. The lease is
// broken only until the next renewal slot re-elects a live holder.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/wpaxos/wpaxos.hpp"
#include "log/kv_state_machine.hpp"
#include "log/workload.hpp"
#include "mac/engine.hpp"
#include "mac/scheduler.hpp"
#include "net/graph.hpp"

namespace amac::log {

struct LogConfig {
  /// Client ops committed per decided slot. 1 = one op per slot.
  std::size_t batch_size = 8;
  /// Max slot instances in flight concurrently (pipelining depth >= 1).
  std::size_t window = 4;
  /// Every lease_slots-th slot renews the lease with full wPAXOS; the
  /// rest ride it on the CommitFlood fast path. 1 = full wPAXOS always.
  std::size_t lease_slots = 64;
  /// Stalled-slot recovery attempts (each relaunches the undecided slots
  /// as full wPAXOS instances) before drive() gives up.
  std::size_t max_recovery_rounds = 4;
  /// 0 = no reads. Otherwise drive() issues a leader read (of the slot's
  /// last written key) every read_every-th decided slot — deterministic,
  /// so the read stream is part of the scenario, not the schedule.
  std::size_t read_every = 0;
  core::wpaxos::WPaxosConfig wpaxos;  ///< config for full-paxos slots
  /// Crashes to inject (node-level, engine CrashPlan semantics). The
  /// service owns its Network, so fault tests thread crash plans through
  /// here instead of reaching into the engine.
  std::vector<mac::CrashPlan> crashes;
};

/// One leader read with its read-index freshness bound.
struct ReadRecord {
  std::uint32_t key = 0;
  std::uint32_t value = 0;   ///< kv value at serve time (0 = never written)
  std::size_t bound = 0;     ///< applied prefix must reach this slot count
  mac::Time issued_at = 0;
  mac::Time served_at = 0;
  bool served = false;
};

/// Everything drive() observed, for benches and tests.
struct LogServiceStats {
  std::size_t slots_total = 0;
  std::size_t slots_decided = 0;
  std::size_t slots_full_paxos = 0;  ///< lease-renewal slots (incl. slot 0)
  std::size_t slots_leased = 0;      ///< CommitFlood fast-path slots
  /// Stalled slots moved to the wPAXOS slow path — counted once per slot,
  /// however many recovery rounds touched it.
  std::size_t slots_recovered = 0;
  /// Total relaunch events across all recovery rounds (diagnostic; can
  /// exceed slots_recovered only when a relaunched slot stalled AGAIN).
  std::size_t relaunches = 0;
  /// Renewal slots whose decided value elected a leader different from
  /// the one the previous lease pinned.
  std::size_t re_elections = 0;
  std::size_t ops_applied = 0;
  /// Slots whose per-instance oracle verdict failed, or whose decided
  /// value was not the slot's batch id. Zero on every healthy run.
  std::size_t oracle_failures = 0;
  std::size_t reads_issued = 0;
  std::size_t reads_served = 0;
  std::uint64_t payload_bytes = 0;  ///< sum of slot instances' broadcast bytes
  std::uint64_t broadcasts = 0;     ///< sum of slot instances' broadcasts
  mac::Time end_time = 0;
  bool complete = false;  ///< every slot decided and applied
  /// True when drive() stopped because the time budget ran out with events
  /// still pending — as opposed to quiescence (a stall), which recovery
  /// handles even when it happens exactly at the horizon tick.
  bool horizon_exhausted = false;
  NodeId leader = 0;      ///< current lease holder when drive() returned
  bool lease_ok = false;  ///< false = broken, awaiting the next renewal
  /// Per-slot decide latency in ticks (decided_at - launched_at), indexed
  /// by slot. launched_at is the slot's FIRST launch: a recovered slot's
  /// latency includes the stall it sat through. Benches fold this into
  /// p50/p99.
  std::vector<mac::Time> decide_latency;
  /// Per-slot tick of the LAST recovery relaunch (0 = never relaunched) —
  /// the separate diagnostic that keeps decide_latency honest.
  std::vector<mac::Time> relaunched_at;
  /// Serve latency (served_at - issued_at) per served read, in issue order.
  std::vector<mac::Time> read_latency;
};

class ReplicatedLog {
 public:
  /// Leader-id bits in a renewal slot's decided value (node ids up to
  /// 4095; the batch id rides above them).
  static constexpr int kLeaderBits = 12;

  /// The value node `u` proposes in renewal slot `slot`: the slot's batch
  /// id and the proposer's identity, packed so the election winner rides
  /// the decision. (+1 so decode_batch can never alias an unencoded 0.)
  [[nodiscard]] static constexpr mac::Value encode_renewal(std::size_t slot,
                                                           NodeId u) {
    return (static_cast<mac::Value>(slot + 1) << kLeaderBits) |
           static_cast<mac::Value>(u);
  }
  [[nodiscard]] static constexpr std::size_t decode_batch(mac::Value v) {
    return static_cast<std::size_t>(v >> kLeaderBits) - 1;
  }
  [[nodiscard]] static constexpr NodeId decode_leader(mac::Value v) {
    return static_cast<NodeId>(v & ((mac::Value{1} << kLeaderBits) - 1));
  }

  /// The log serves `workload` over `graph` with `scheduler` timing.
  /// Identity node ids are assumed (renewal slots elect the max live id).
  ReplicatedLog(const net::Graph& graph, mac::Scheduler& scheduler,
                const Workload& workload, LogConfig config = {});

  ReplicatedLog(const ReplicatedLog&) = delete;
  ReplicatedLog& operator=(const ReplicatedLog&) = delete;

  /// Runs the service until every slot is decided and applied, the
  /// virtual-time horizon is hit, or recovery gives up. Call once.
  const LogServiceStats& drive(mac::Time horizon);

  /// Issues a leader read of `key`, bound to the latest decided slot;
  /// served (possibly immediately) once the applied prefix passes the
  /// bound. Returns the read's index into reads().
  std::size_t submit_read(std::uint32_t key);

  [[nodiscard]] const LogServiceStats& stats() const { return stats_; }
  [[nodiscard]] const KvStateMachine& state_machine() const { return kv_; }
  [[nodiscard]] const mac::Network& network() const { return net_; }
  /// For installing observers and link faults on the service's network
  /// before drive(): a trace digest, a post-event hook, a LinkFaultPlan.
  /// drive() owns the completion hook.
  [[nodiscard]] mac::Network& network() { return net_; }
  /// The instance that decided (or was deciding) slot `slot` — a recovered
  /// slot reports its relaunched full-paxos instance. Retired instances
  /// keep their decisions readable, so post-run oracles
  /// (verify::check_log_prefix) fold per-replica prefixes straight from
  /// network().decision(u, slot_instance(i)).
  [[nodiscard]] mac::InstanceId slot_instance(std::size_t slot) const {
    return slots_[slot].instance;
  }
  [[nodiscard]] const std::vector<ReadRecord>& reads() const {
    return reads_;
  }

  /// The ops slot `s` commits: indices [s * batch, min((s+1) * batch, N)).
  [[nodiscard]] std::pair<std::size_t, std::size_t> batch_range(
      std::size_t slot) const;

 private:
  /// How a slot instance proposes.
  enum class SlotMode {
    kElective,     ///< full wPAXOS, node u proposes encode_renewal(slot, u)
    kForcedPaxos,  ///< full wPAXOS, every node proposes the same value
    kLeased,       ///< CommitFlood under the current lease holder
  };

  struct SlotRecord {
    mac::InstanceId instance = 0;
    mac::Time launched_at = 0;    ///< FIRST launch (decide-latency base)
    mac::Time relaunched_at = 0;  ///< last recovery relaunch (diagnostic)
    mac::Time decided_at = 0;
    mac::Value sole = 0;  ///< the forced value when !elective
    /// deliveries+broadcasts snapshot from the last recovery look: a
    /// full-paxos slot is only relaunched when this did not move.
    std::uint64_t progress = 0;
    bool decided = false;
    bool full_paxos = false;
    bool elective = false;
    bool recovered = false;        ///< already counted in slots_recovered
    bool progress_marked = false;  ///< had a recovery look already
  };

  [[nodiscard]] bool lease_renewal_slot(std::size_t slot) const {
    return slot % config_.lease_slots == 0;
  }
  [[nodiscard]] mac::ProcessFactory slot_factory(std::size_t slot,
                                                 SlotMode mode,
                                                 mac::Value forced) const;
  /// True once `instance` is all-decided AND some node actually decided:
  /// an instance whose nodes all crashed undecided is vacuously
  /// all-decided but decided nothing.
  [[nodiscard]] bool slot_decided(mac::InstanceId instance) const;
  void pump();
  void on_slot_decided(std::size_t slot);
  void apply_ready_prefix();
  void serve_ready_reads();
  void launch_ready_slots();
  void recover_stalled_slots();

  const Workload& workload_;
  LogConfig config_;
  std::size_t n_;
  std::size_t total_slots_;
  mac::Network net_;

  std::vector<SlotRecord> slots_;
  std::vector<std::size_t> inflight_;  ///< launched, not yet decided
  std::size_t next_launch_ = 0;
  std::size_t next_apply_ = 0;
  /// Current lease holder. Initialized optimistically to n-1 (the max-id
  /// Omega winner of a crash-free slot 0) so the first window can pipeline
  /// leased slots behind the still-deciding renewal; every renewal slot's
  /// decision re-derives it via decode_leader.
  NodeId current_leader_;
  /// Cleared by recovery (the lease holder failed to serve a slot), set
  /// again when a renewal slot elects a live holder — "broken until next
  /// renewal", not a terminal state.
  bool lease_ok_ = true;
  /// Slot count the freshest read must wait for: latest decided slot + 1.
  std::size_t read_bound_ = 0;
  /// Set when launch_ready_slots adds instances; drive() clears it before
  /// the post-run pump so recovery can tell "quiescent because stalled"
  /// from "quiescent because the final decide just launched fresh slots
  /// whose events are still pending".
  bool just_launched_ = false;
  std::vector<ReadRecord> reads_;
  std::size_t next_read_serve_ = 0;  ///< reads_[0..this) are served
  /// Per-slot oracle inputs, sized on first use and rewritten per slot.
  std::vector<mac::Value> oracle_inputs_;
  KvStateMachine kv_;
  LogServiceStats stats_;
  bool driven_ = false;
};

}  // namespace amac::log
