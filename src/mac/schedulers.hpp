// The scheduler suite: every adversary the paper's proofs use, plus
// randomized schedulers for upper-bound coverage.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mac/scheduler.hpp"
#include "util/rng.hpp"

namespace amac::mac {

/// The paper's "synchronous scheduler" (§3.2): lock-step rounds. Every copy
/// of a broadcast is delivered `round` ticks after the broadcast, and the
/// ack arrives at the same tick (the engine orders receives first), so all
/// nodes advance in rounds of length `round`. With round = F this is also
/// the Theorem 3.10 adversary (maximum delay between synchronous steps).
class SynchronousScheduler final : public Scheduler {
 public:
  explicit SynchronousScheduler(Time round = 1) : round_(round) {
    AMAC_EXPECTS(round >= 1);
  }

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override;
  [[nodiscard]] Time fack() const override { return round_; }

 private:
  Time round_;
};

/// Fully random: each broadcast gets an ack delay uniform in [1, F_ack] and
/// per-neighbor receive delays uniform in [1, ack delay]. Deterministic
/// given the seed.
class UniformRandomScheduler final : public Scheduler {
 public:
  UniformRandomScheduler(Time fack, std::uint64_t seed)
      : fack_(fack), rng_(seed) {
    AMAC_EXPECTS(fack >= 1);
  }

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override;
  [[nodiscard]] Time fack() const override { return fack_; }

 private:
  Time fack_;
  util::Rng rng_;
};

/// Per-directed-edge fixed delays in [1, F_ack], derived from a seed: some
/// links are persistently fast, some persistently slow. Stresses wPAXOS's
/// tree stabilization with asymmetric topologies of effective latency.
class SkewedScheduler final : public Scheduler {
 public:
  SkewedScheduler(Time fack, std::uint64_t seed) : fack_(fack), seed_(seed) {
    AMAC_EXPECTS(fack >= 1);
  }

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override;
  [[nodiscard]] Time fack() const override { return fack_; }

 private:
  [[nodiscard]] Time edge_delay(NodeId from, NodeId to) const;

  Time fack_;
  std::uint64_t seed_;
};

/// Wraps a base scheduler and withholds every delivery of selected senders
/// until a release tick. This is the shape of both partition adversaries in
/// the paper: the §3.2 alpha_A scheduler (hold everything the bridge q
/// sends) and the §3.3 semi-synchronous scheduler (hold everything the
/// L_{D-1} endpoint w sends). Held deliveries also push the sender's ack
/// past the release tick, which is legal: F_ack is finite but unknown to the
/// nodes, so no node can detect the hold. To delay a single directed link
/// instead, install a finite DropWindow{from, to, 0, release} in a
/// LinkFaultPlan (link_faults.hpp): it defers that link's copies to the
/// release tick and stretches the ack the same way.
class HoldbackScheduler final : public Scheduler {
 public:
  HoldbackScheduler(std::unique_ptr<Scheduler> base, Time release)
      : base_(std::move(base)), release_(release) {
    AMAC_EXPECTS(base_ != nullptr);
  }

  /// Withholds every delivery from `sender` (to any neighbor) until the
  /// scheduler's release tick.
  void hold_sender(NodeId sender) { held_senders_[sender] = release_; }

  /// Same, with a per-sender release (staggered wake-ups).
  void hold_sender_until(NodeId sender, Time release) {
    held_senders_[sender] = release;
  }

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override;

  /// The effective bound: base F_ack plus the latest release.
  [[nodiscard]] Time fack() const override {
    Time latest = release_;
    for (const auto& [sender, release] : held_senders_) {
      latest = std::max(latest, release);
    }
    return latest + base_->fack();
  }

 private:
  std::unique_ptr<Scheduler> base_;
  Time release_;
  std::map<NodeId, Time> held_senders_;
};

/// Receiver-side contention: a radio decodes one frame at a time, so each
/// receiver absorbs at most one delivery per tick; concurrent broadcasts
/// into the same neighborhood queue up. This models the congestion
/// behavior behind the F_prog parameter of the full abstract MAC layer
/// ([29]) which the paper omits: delays grow with local contention but
/// stay below the declared bound. Construct with
/// fack_bound >= base * (max in-degree + 1); violations trip a contract
/// check rather than silently breaking the model.
class ContentionScheduler final : public Scheduler {
 public:
  ContentionScheduler(Time base, Time fack_bound, std::uint64_t seed)
      : base_(base), fack_bound_(fack_bound), rng_(seed) {
    AMAC_EXPECTS(base >= 1);
    AMAC_EXPECTS(fack_bound >= base);
  }

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override;
  [[nodiscard]] Time fack() const override { return fack_bound_; }

 private:
  Time base_;
  Time fack_bound_;
  util::Rng rng_;
  /// receiver -> next decodable tick, indexed by NodeId and grown on
  /// demand (nodes are dense 0..n-1, so a flat vector replaces the former
  /// std::map and its per-lookup log factor; absent entries mean 0).
  std::vector<Time> next_free_;
};

/// Dual-graph adversary: wraps a base scheduler (which keeps deciding the
/// reliable deliveries) and delivers each unreliable-overlay copy with
/// probability `delivery_probability` — but never after the optional
/// `cutoff` tick. The cutoff builds the adversary that breaks wPAXOS's
/// liveness when its trees are allowed to route over unreliable edges: be
/// generous while routes form, then go silent (see bench_unreliable).
class LossyScheduler final : public Scheduler {
 public:
  LossyScheduler(std::unique_ptr<Scheduler> base, double delivery_probability,
                 std::uint64_t seed)
      : base_(std::move(base)), probability_(delivery_probability),
        rng_(seed) {
    AMAC_EXPECTS(base_ != nullptr);
    AMAC_EXPECTS(delivery_probability >= 0.0 && delivery_probability <= 1.0);
  }

  /// Unreliable edges deliver nothing at or after this tick.
  void set_cutoff(Time cutoff) { cutoff_ = cutoff; }

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override {
    base_->schedule(sender, now, neighbors, out);
  }

  void schedule_unreliable(NodeId sender, Time now,
                           const std::vector<NodeId>& overlay_neighbors,
                           Time ack_delay,
                           std::vector<std::pair<NodeId, Time>>& out) override;

  [[nodiscard]] Time fack() const override { return base_->fack(); }

 private:
  std::unique_ptr<Scheduler> base_;
  double probability_;
  util::Rng rng_;
  Time cutoff_ = kForever;
};

/// One scripted broadcast slot: the `index`-th broadcast (0-based) of
/// `sender` acks after `ack` ticks. With `delays` empty the slot is uniform:
/// every receiver hears it after `recv` ticks (the dense form the engine
/// fans out as one run). Otherwise each listed (receiver, delay) pair
/// overrides one receiver and unlisted receivers hear it after 1 tick.
///
/// canonicalize_script() is the one statement of what slots mean on a graph
/// of `node_count` nodes, and ScriptedScheduler replays only its output:
///   * a slot whose sender is not a node is dropped;
///   * `ack` is at least 1;
///   * listed receivers that are not nodes are dropped, delays are clamped
///     into [1, ack], a receiver listed twice keeps its later delay, and the
///     list is sorted by receiver; `recv` is then the largest listed delay,
///     or 1 when the slot listed receivers but none is left (it is the
///     uniform slot every unlisted receiver already gets);
///   * a uniform slot's `recv` is clamped into [1, ack];
///   * duplicate (sender, index) slots all stay; the later one is replayed;
///   * the effective F_ack is the largest `ack` of any kept slot, and at
///     least 1 (unscripted broadcasts run in synchronous rounds of 1).
struct ScriptSlot {
  NodeId sender = kNoNode;
  std::uint32_t index = 0;  ///< which broadcast of the sender (0-based)
  Time ack = 1;             ///< ack delay; >= recv and every listed delay
  Time recv = 1;            ///< shared receive delay, in [1, ack]
  /// Per-receiver (receiver, delay) overrides; empty means uniform `recv`.
  std::vector<std::pair<NodeId, Time>> delays;
};

/// Rewrites `slots` into canonical form for a graph of `node_count` nodes
/// (rules on ScriptSlot) and returns the effective F_ack.
Time canonicalize_script(std::vector<ScriptSlot>& slots,
                         std::size_t node_count);

/// Fully scripted delays for exact adversarial timelines in tests,
/// counterexample reproductions, and the fuzzer's timeline mutation: the
/// i-th broadcast of a sender uses its scripted slot (see ScriptSlot);
/// unscripted broadcasts fall back to synchronous rounds of length 1.
class ScriptedScheduler final : public Scheduler {
 public:
  ScriptedScheduler() = default;

  /// Replays `slots` on a graph of `node_count` nodes after
  /// canonicalize_script(), so any slot list (a spec line's included) is
  /// accepted.
  ScriptedScheduler(std::vector<ScriptSlot> slots, std::size_t node_count);

  /// Scripts the `index`-th broadcast (0-based) of `sender`. Receivers not
  /// listed get delay 1. Requires ack_delay >= every listed delay >= 1.
  void script(NodeId sender, std::uint32_t index, Time ack_delay,
              std::vector<std::pair<NodeId, Time>> delays);

  /// Scripts the `index`-th broadcast of `sender` with ONE shared delay for
  /// every receiver — the dense uniform form (the engine queues it as one
  /// run-length calendar entry, so scripted timelines exercise the push_run
  /// path). Requires 1 <= receive_delay <= ack_delay.
  void script_uniform(NodeId sender, std::uint32_t index, Time ack_delay,
                      Time receive_delay);

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override;
  [[nodiscard]] Time fack() const override { return max_ack_; }

 private:
  /// Indexes one canonical slot; a later slot replaces an earlier one.
  void add(ScriptSlot slot);

  std::map<std::pair<NodeId, std::size_t>, ScriptSlot> slots_;
  /// sender -> broadcasts issued so far, grown on demand (dense node ids).
  std::vector<std::size_t> broadcast_counts_;
  Time max_ack_ = 1;
};

}  // namespace amac::mac
