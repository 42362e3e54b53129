// The scheduler suite: every adversary the paper's proofs use, plus
// randomized schedulers for upper-bound coverage.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

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

/// Wraps a base scheduler and withholds deliveries on selected directed
/// edges until a release tick. This is the shape of both partition
/// adversaries in the paper: the §3.2 alpha_A scheduler (hold everything the
/// bridge q sends) and the §3.3 semi-synchronous scheduler (hold everything
/// the L_{D-1} endpoint w sends). Held deliveries also push the sender's ack
/// past the release tick, which is legal: F_ack is finite but unknown to the
/// nodes, so no node can detect the hold.
class HoldbackScheduler final : public Scheduler {
 public:
  HoldbackScheduler(std::unique_ptr<Scheduler> base, Time release)
      : base_(std::move(base)), release_(release) {
    AMAC_EXPECTS(base_ != nullptr);
  }

  /// Withholds every delivery from `sender` (to any neighbor) until the
  /// scheduler's release tick.
  void hold_sender(NodeId sender) {
    held_senders_[sender] = release_;
    fack_dirty_ = true;
  }

  /// Same, with a per-sender release (staggered wake-ups).
  void hold_sender_until(NodeId sender, Time release) {
    held_senders_[sender] = release;
    fack_dirty_ = true;
  }

  /// Withholds deliveries from `sender` to `receiver` until release.
  void hold_edge(NodeId sender, NodeId receiver) {
    held_edges_[{sender, receiver}] = release_;
    fack_dirty_ = true;
  }

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override;

  /// The effective bound: base F_ack plus the largest hold window. Cached —
  /// the engine and experiment loops call fack() per broadcast, and
  /// re-walking both hold maps there made a query of a static quantity
  /// O(holds) per event.
  [[nodiscard]] Time fack() const override {
    if (fack_dirty_) {
      Time latest = release_;
      for (const auto& [sender, release] : held_senders_) {
        latest = std::max(latest, release);
      }
      for (const auto& [edge, release] : held_edges_) {
        latest = std::max(latest, release);
      }
      cached_fack_ = latest + base_->fack();
      fack_dirty_ = false;
    }
    return cached_fack_;
  }

 private:
  std::unique_ptr<Scheduler> base_;
  Time release_;
  std::map<NodeId, Time> held_senders_;
  std::map<std::pair<NodeId, NodeId>, Time> held_edges_;
  mutable Time cached_fack_ = 0;
  mutable bool fack_dirty_ = true;
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

/// Fully scripted delays for exact adversarial timelines in tests,
/// counterexample reproductions, and the fuzzer's timeline mutation: the
/// i-th broadcast of a sender uses its scripted (ack delay, per-receiver
/// delays); unscripted broadcasts fall back to synchronous rounds of
/// length 1.
class ScriptedScheduler final : public Scheduler {
 public:
  ScriptedScheduler() = default;

  /// One scripted slot, as seen through the introspection API (tests read
  /// these back; the fuzzer's timeline mutator edits Scenario::script).
  struct SlotView {
    NodeId sender = kNoNode;
    std::size_t index = 0;      ///< which broadcast of the sender
    Time ack_delay = 1;
    Time uniform_delay = 0;     ///< nonzero: every receiver gets this delay
    std::size_t listed_receivers = 0;  ///< per-receiver entries (0 if uniform)
  };

  /// Scripts the `index`-th broadcast (0-based) of `sender`. Receivers not
  /// listed get delay 1. Requires ack_delay >= every listed delay.
  void script(NodeId sender, std::size_t index, Time ack_delay,
              std::vector<std::pair<NodeId, Time>> delays);

  /// Scripts the `index`-th broadcast of `sender` with ONE shared delay for
  /// every receiver — the dense uniform form (the engine queues it as one
  /// run-length calendar entry, so scripted timelines exercise the push_run
  /// path). Requires 1 <= receive_delay <= ack_delay.
  void script_uniform(NodeId sender, std::size_t index, Time ack_delay,
                      Time receive_delay);

  // --- introspection (tests) ---

  [[nodiscard]] std::size_t slot_count() const { return script_.size(); }
  /// Every scripted slot in deterministic (sender, index) order.
  [[nodiscard]] std::vector<SlotView> slots() const;
  /// How many broadcasts `sender` has issued so far (scripted or fallback).
  [[nodiscard]] std::size_t broadcasts_issued(NodeId sender) const;

  void schedule(NodeId sender, Time now, const std::vector<NodeId>& neighbors,
                BroadcastSchedule& out) override;
  [[nodiscard]] Time fack() const override { return max_ack_; }

 private:
  struct Entry {
    Time ack_delay = 1;
    Time uniform_delay = 0;  ///< nonzero: uniform slot, delays ignored
    std::vector<std::pair<NodeId, Time>> delays;
  };
  std::map<std::pair<NodeId, std::size_t>, Entry> script_;
  std::map<NodeId, std::size_t> broadcast_counts_;
  Time max_ack_ = 1;
};

}  // namespace amac::mac
