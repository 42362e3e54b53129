// wPAXOS: wireless PAXOS for multihop abstract MAC layer networks
// (paper §4.2). Solves consensus in O(D * F_ack) time given unique ids and
// knowledge of n — exactly the knowledge the lower bounds of §3.2/§3.3 make
// necessary.
//
// Structure mirrors the paper's Figure 3: four support services plus the
// PAXOS proposer/acceptor logic, all multiplexed over one broadcast stream.
//
//   * Leader election (Algorithm 2): max-id flood into Omega.
//   * Change service (Algorithm 3): floods the freshest (timestamp, origin)
//     change event; a node that believes itself leader generates a new
//     proposal whenever its change queue is refreshed — and a proposer
//     attempts at most kProposalsPerChange proposal numbers per
//     notification, which is what bounds proposals after stabilization.
//     By default a leader whose proposal is active does not restart it for
//     a relayed change stamped before that proposal's launch: the change
//     cannot affect it (WPaxosConfig::skip_seen_changes).
//   * Tree building (Algorithm 4): per-root Bellman-Ford (dist, parent)
//     with the current leader's search messages prioritized, so the
//     leader's tree completes soon after leader election stabilizes. By
//     default a node also drops every search for a root below its Omega,
//     received or queued: responses only ever travel toward Omega, so such
//     a tree is never used (WPaxosConfig::prune_dead_roots).
//   * Broadcast service (Algorithm 5): combines the heads of the service
//     queues into one bounded envelope per ack cycle.
//   * Proposer/acceptor: standard single-decree PAXOS, except acceptor
//     responses are addressed hop-by-hop to parent[proposer] and
//     aggregated en route: counts sum, carried previous proposals and
//     rejection commit-numbers max-merge (§4.2.1). Lemma 4.2 (response
//     count conservation) is monitored by verify/invariants.hpp.
//
// Deciding proposers flood decide(v); every node decides on first receipt.
//
// Allocation discipline. Simulating an instance is almost all protocol
// callbacks (~100k per 16x16-grid instance), so the callback path must not
// touch the heap once a node's tables have grown to their working size.
// Received envelopes decode in place from the engine's payload view;
// outgoing envelopes encode into two per-node scratch buffers that the
// engine copies into the broadcast's flight; the per-root (dist, parent)
// table is one sorted flat map and the tree queue a vector, so each grows
// O(log n) times per node instead of allocating per entry. The constructor
// allocates nothing and no table is pre-sized: a node's footprint is what
// its run fills. tests/test_wpaxos_allocs.cpp pins the whole-instance count.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "core/wpaxos/messages.hpp"
#include "mac/process.hpp"
#include "util/flat_map.hpp"

namespace amac::core::wpaxos {

/// The paper's "up to 2 proposal numbers per change notification" (§4.2):
/// after stabilization the first attempt may be rejected, and its
/// rejections number the second above every promise (see
/// WPaxos::check_thresholds).
inline constexpr int kProposalsPerChange = 2;

/// Feature switches. Defaults are the paper's algorithm plus two
/// deviations that only drop work no node can use: dead-root pruning, which
/// stops relaying searches for trees nobody routes on, and skipping seen
/// changes, which stops restarting a proposal for a change made before it
/// launched. prune_dead_roots = false is Algorithm 4 verbatim and
/// skip_seen_changes = false is Algorithm 3 verbatim. Turning one of the
/// three design-choice switches off reproduces the strawman that motivates
/// it (bench_ablations, which measures them with both deviations off).
struct WPaxosConfig {
  /// Drop searches for roots below Omega, and purge them from the tree
  /// queue when Omega rises (see WPaxos::process_search). Off = Algorithm
  /// 4 verbatim: every node builds every root's tree.
  bool prune_dead_roots = true;
  /// While a proposal is active, a leader ignores a relayed change stamped
  /// before that proposal's launch (see WPaxos::process_change). Off =
  /// Algorithm 3 verbatim: every fresh change restarts the proposal.
  bool skip_seen_changes = true;
  /// Algorithm 4's optimization: the current leader's search messages jump
  /// the tree queue. Off = plain FIFO Bellman-Ford.
  bool tree_priority = true;
  /// Aggregate acceptor responses en route (§4.2.1). Off = every response
  /// travels individually: the Theta(n) bottleneck the paper warns about.
  bool aggregate_responses = true;
  /// Gate proposal (re)generation on the change service (Algorithm 3).
  /// Off = the leader re-proposes on every service event it observes
  /// (proposal storm).
  bool change_gating = true;
  /// Record every positive acceptor response for the Lemma 4.2 monitor.
  bool track_responses = false;
  /// Dual-graph extension (the paper's open question): when true, the tree
  /// service only adopts parents from packets that arrived over RELIABLE
  /// edges, so acceptor responses are never routed into a link the
  /// adversary can silence. Safety holds either way; this restores
  /// liveness under unreliable overlays (see bench_unreliable).
  bool tree_reliable_only = false;
};

/// A node's tree-service record for one root (Algorithm 4).
struct TreeEntry {
  std::uint32_t dist = 0;     ///< best known hop count to the root
  std::uint64_t parent = 0;   ///< id of the neighbor that offered it
};

class WPaxos final : public mac::Process {
 public:
  /// Knowledge: own unique id, n (required by Theorem 3.9), initial value.
  /// No topology or participant knowledge.
  WPaxos(std::uint64_t id, std::size_t n, mac::Value initial_value,
         WPaxosConfig config = {});

  void on_start(mac::Context& ctx) override;
  void on_receive(const mac::Packet& packet, mac::Context& ctx) override;
  void on_ack(mac::Context& ctx) override;
  [[nodiscard]] std::unique_ptr<mac::Process> clone() const override;
  void digest(util::Hasher& h) const override;
  void protocol_stats(mac::ProtocolStats& out) const override;

  // --- observables (tests, benches, invariant monitors) ---

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint64_t omega() const { return omega_; }
  /// Algorithm 4's tables, keyed by root id in ascending order.
  [[nodiscard]] const util::FlatMap<std::uint64_t, TreeEntry>& tree() const {
    return tree_;
  }
  [[nodiscard]] bool has_decided() const { return decided_; }
  /// Responses aggregated into an already-queued one (§4.2.1). Proposals
  /// and change events are reported through protocol_stats.
  [[nodiscard]] std::uint64_t responses_merged() const {
    return responses_merged_;
  }
  [[nodiscard]] const std::vector<AcceptorResponse>& response_queue() const {
    return response_q_;
  }
  [[nodiscard]] std::uint64_t current_max_tag() const { return max_tag_; }

  /// Proposer-side view for the Lemma 4.2 monitor.
  struct ProposerSnapshot {
    bool active = false;
    AcceptorResponse::Stage stage = AcceptorResponse::Stage::kPrepare;
    ProposalNumber pn;
    std::uint64_t yes = 0;
    std::uint64_t no = 0;
  };
  [[nodiscard]] ProposerSnapshot proposer_snapshot() const;

  /// With track_responses: has this node's acceptor emitted a positive
  /// response to (pn, stage)?
  [[nodiscard]] bool responded_positive(const ProposalNumber& pn,
                                        AcceptorResponse::Stage stage) const;

 private:
  enum class PropPhase : std::uint8_t { kIdle, kPrepare, kPropose };

  // -- service event handlers --
  void process_leader(std::uint64_t leader_id, mac::Context& ctx);
  void process_search(const SearchMsg& m, std::uint64_t from_id,
                      bool reliable_edge, mac::Context& ctx);
  void process_change(const ChangeMsg& m, mac::Context& ctx);
  void process_proposer(const ProposerMsg& m, mac::Context& ctx);
  void process_response(const AcceptorResponse& r, mac::Context& ctx);

  // -- change service --
  void on_local_change(mac::Context& ctx);

  // -- tree service --
  void tree_enqueue(const SearchMsg& s);
  void tree_prioritize_leader();

  // -- proposer --
  void generate_new_proposal(mac::Context& ctx);
  void start_proposal(mac::Context& ctx);
  void consume_response(const AcceptorResponse& r, mac::Context& ctx);
  void check_thresholds(mac::Context& ctx);

  // -- acceptor --
  [[nodiscard]] AcceptorResponse acceptor_respond(const ProposerMsg& m);
  void route_response(AcceptorResponse r, mac::Context& ctx);
  void response_enqueue(AcceptorResponse r);
  void prune_responses();

  // -- decision --
  void adopt_decision(mac::Value v, mac::Context& ctx);

  // -- broadcast service (Algorithm 5) --
  void maybe_send(mac::Context& ctx);

  [[nodiscard]] static std::uint8_t rank(ProposerMsg::Kind k) {
    return static_cast<std::uint8_t>(k);
  }

  // identity & knowledge
  std::uint64_t id_;
  std::size_t n_;
  mac::Value value_;
  WPaxosConfig cfg_;

  // leader election (Algorithm 2)
  std::uint64_t omega_ = 0;
  std::optional<LeaderMsg> leader_q_;

  // change service (Algorithm 3)
  std::pair<mac::Time, std::uint64_t> last_change_{0, 0};
  std::optional<ChangeMsg> change_q_;

  // tree service (Algorithm 4); keyed by root id. The queue holds at most
  // one entry per root, head first.
  util::FlatMap<std::uint64_t, TreeEntry> tree_;
  std::vector<SearchMsg> tree_q_;

  // proposer flood queue + at-most-once guard
  std::optional<ProposerMsg> proposer_q_;
  std::pair<ProposalNumber, std::uint8_t> last_processed_{
      ProposalNumber::zero(), 0};
  bool processed_any_ = false;

  // acceptor (standard PAXOS acceptor state)
  ProposalNumber promised_ = ProposalNumber::zero();
  std::optional<Proposal> accepted_;
  std::set<std::pair<ProposalNumber, std::uint8_t>> positive_log_;

  // acceptor response queue (§4.2.1 invariants maintained by
  // response_enqueue/prune_responses)
  std::vector<AcceptorResponse> response_q_;
  ProposalNumber max_pn_from_leader_ = ProposalNumber::zero();

  // proposer state machine
  PropPhase pphase_ = PropPhase::kIdle;
  ProposalNumber current_ = ProposalNumber::zero();
  mac::Value prop_value_ = 0;
  std::uint64_t yes_ = 0;
  std::uint64_t no_ = 0;
  std::optional<Proposal> best_prev_;
  int attempts_left_ = 0;
  std::uint64_t max_tag_ = 0;
  /// now() when generate_new_proposal last ran; the retries of that
  /// notification keep it (skip_seen_changes).
  mac::Time launched_at_ = 0;

  // decision
  bool decided_ = false;
  mac::Value decision_value_ = -1;
  bool decide_relay_pending_ = false;

  // counters (protocol_stats, responses_merged)
  std::uint64_t proposals_started_ = 0;
  std::uint64_t change_events_ = 0;  ///< local Omega/dist-to-leader updates
  std::uint64_t responses_merged_ = 0;

  // broadcast scratch (not state: never digested); see encode_into
  util::Buffer wire_scratch_;
  util::Buffer body_scratch_;
};

/// Envelope extension: every wPAXOS broadcast also carries the sender's
/// algorithm-level id so receivers can set tree parents under arbitrary
/// (not index-equal) id assignments.
struct WireEnvelope {
  std::uint64_t sender_id = 0;
  Envelope body;

  [[nodiscard]] util::Buffer encode() const;
  /// The bytes encode() returns, written into `out` through
  /// `body_scratch` (the inner envelope's staging buffer). Both keep their
  /// capacity, so a caller that reuses them encodes without allocating.
  void encode_into(util::Buffer& out, util::Buffer& body_scratch) const;
  /// Decodes the inner envelope in place, without copying it out of `buf`.
  [[nodiscard]] static WireEnvelope decode(const util::Buffer& buf);
};

}  // namespace amac::core::wpaxos
