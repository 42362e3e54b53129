#include "core/wpaxos/wpaxos.hpp"

#include <algorithm>

namespace amac::core::wpaxos {

util::Buffer WireEnvelope::encode() const {
  util::Buffer out;
  util::Buffer body_scratch;
  encode_into(out, body_scratch);
  return out;
}

void WireEnvelope::encode_into(util::Buffer& out,
                               util::Buffer& body_scratch) const {
  // An envelope is O(1) ids, a few dozen bytes: one reservation lets a
  // reused scratch skip the byte-by-byte doubling of its first encodes.
  constexpr std::size_t kTypicalBytes = 64;
  body_scratch.reserve(kTypicalBytes);
  out.reserve(kTypicalBytes);
  util::Writer inner(std::move(body_scratch));
  body.encode(inner);
  body_scratch = std::move(inner).take();
  util::Writer w(std::move(out));
  w.put_uvarint(sender_id);
  w.put_bytes(body_scratch);
  out = std::move(w).take();
}

WireEnvelope WireEnvelope::decode(const util::Buffer& buf) {
  util::Reader r(buf);
  WireEnvelope e;
  e.sender_id = r.get_uvarint();
  // The length-prefixed body is the rest of the frame: decode it straight
  // from `buf` rather than through a get_bytes copy.
  const std::uint64_t len = r.get_uvarint();
  AMAC_ENSURES(len == r.remaining());
  e.body = Envelope::decode(r);
  AMAC_ENSURES(r.exhausted());
  return e;
}

WPaxos::WPaxos(std::uint64_t id, std::size_t n, mac::Value initial_value,
               WPaxosConfig config)
    : id_(id), n_(n), value_(initial_value), cfg_(config) {
  AMAC_EXPECTS(n >= 1);
  // PAXOS is value-agnostic, so wPAXOS supports arbitrary non-negative
  // values, not just binary consensus (the paper's §2 generalization; note
  // that b-bit values make messages O(b + log n) bits — doing better is
  // the open problem the paper states).
  AMAC_EXPECTS(initial_value >= 0);
}

void WPaxos::on_start(mac::Context& ctx) {
  // Algorithm 2 init: Omega_u <- id_u, enqueue <leader, id_u>.
  omega_ = id_;
  leader_q_ = LeaderMsg{id_};
  // Algorithm 4 init: dist[id_u] <- 0, parent[id_u] <- id_u,
  // enqueue <search, id_u, 1>.
  tree_[id_] = TreeEntry{0, id_};
  tree_enqueue(SearchMsg{id_, 1});
  // Algorithm 3: bootstrap change event (every node starts as its own
  // leader, so this also generates the initial proposal).
  on_local_change(ctx);
  maybe_send(ctx);
}

void WPaxos::on_receive(const mac::Packet& packet, mac::Context& ctx) {
  const WireEnvelope env = WireEnvelope::decode(packet.payload);
  const Envelope& body = env.body;
  if (body.leader) process_leader(body.leader->leader_id, ctx);
  if (body.search) {
    process_search(*body.search, env.sender_id, packet.reliable, ctx);
  }
  if (body.change) process_change(*body.change, ctx);
  if (body.proposer) process_proposer(*body.proposer, ctx);
  if (body.response) process_response(*body.response, ctx);
  maybe_send(ctx);
}

void WPaxos::on_ack(mac::Context& ctx) { maybe_send(ctx); }

// ---------------------------------------------------------------- services

void WPaxos::process_leader(std::uint64_t leader_id, mac::Context& ctx) {
  if (decided_ || leader_id <= omega_) return;
  omega_ = leader_id;
  leader_q_ = LeaderMsg{leader_id};
  // Losing leadership abandons any in-flight proposal: its responses are
  // about to be pruned network-wide anyway (queue invariant (1)).
  if (omega_ != id_) pphase_ = PropPhase::kIdle;
  // Every queued search for a root below the new Omega is now dead (see
  // process_search).
  if (cfg_.prune_dead_roots) {
    std::erase_if(tree_q_,
                  [&](const SearchMsg& q) { return q.root < omega_; });
  }
  tree_prioritize_leader();
  max_pn_from_leader_ = ProposalNumber::zero();
  // The at-most-once cursor is scoped to the current leader's flood: the
  // new leader restarts from its own (possibly smaller) proposal numbers,
  // so the cursor restarts with it (see process_proposer).
  processed_any_ = false;
  last_processed_ = {ProposalNumber::zero(), 0};
  prune_responses();
  on_local_change(ctx);
}

void WPaxos::process_search(const SearchMsg& m, std::uint64_t from_id,
                            bool reliable_edge, mac::Context& ctx) {
  if (decided_) return;
  // Dual-graph mode: never route the response tree over a link the
  // adversary may silence.
  if (cfg_.tree_reliable_only && !reliable_edge) return;
  // Dead-root pruning. A root below omega_ is dead here: acceptor
  // responses are routed only toward omega_ (response_enqueue and
  // prune_responses drop every other proposer's), maybe_send reads tree_
  // only for a queued response's proposer, and omega_ never falls. Nor
  // could a neighbour use our relay: the envelope that carried it would
  // carry, or follow, our announcement of a leader id >= omega_ (a
  // broadcast is acknowledged only once every neighbour has it), and
  // on_receive handles the leader field before the search, so the root is
  // below the neighbour's Omega too. Liveness is untouched: the maximum id
  // is never below any node's Omega, so its search is never dropped, and
  // Theorem 4.6's O(D * F_ack) argument uses that leader's tree alone. Its
  // search only waits behind fewer queued roots.
  //
  // The cost is in virtual time, not messages. On a 4x4 grid under
  // sync(1) the trees are the same and complete by t=6 either way, but the
  // leader's change notifications arrive every 3 ticks instead of every 2,
  // and the decision moves from t=32 to t=35. A node that relays no dead
  // searches is often idle, and an idle node broadcasts on the first
  // delivery of a tick; a change delivered later in that tick then waits a
  // whole ack. Verbatim, dead searches keep every node busy until after
  // the tick's deliveries, so one envelope carries them all.
  if (cfg_.prune_dead_roots && m.root < omega_) return;
  const auto it = tree_.find(m.root);
  const bool improves = it == tree_.end() || m.hops < it->second.dist;
  if (!improves) return;
  tree_[m.root] = TreeEntry{m.hops, from_id};
  tree_enqueue(SearchMsg{m.root, m.hops + 1});
  // Algorithm 3's OnChange fires when Omega or the distance to the current
  // leader changes.
  if (m.root == omega_) on_local_change(ctx);
  // Ablation: without change gating, a self-proclaimed leader re-proposes
  // on every event it observes.
  if (!cfg_.change_gating && omega_ == id_) generate_new_proposal(ctx);
}

void WPaxos::process_change(const ChangeMsg& m, mac::Context& ctx) {
  if (decided_ || m.key() <= last_change_) return;
  last_change_ = m.key();
  change_q_ = m;
  // Algorithm 3 UpdateQ: a node that currently believes itself leader
  // generates a new PAXOS proposal.
  if (omega_ == id_) generate_new_proposal(ctx);
}

void WPaxos::on_local_change(mac::Context& ctx) {
  if (decided_) return;
  ++change_events_;
  last_change_ = {ctx.now(), id_};
  change_q_ = ChangeMsg{ctx.now(), id_};
  if (omega_ == id_) generate_new_proposal(ctx);
}

void WPaxos::tree_enqueue(const SearchMsg& s) {
  // Algorithm 4 UpdateQ: replace any queued (necessarily worse) entry for
  // the same root, then prioritize the leader's entry.
  std::erase_if(tree_q_, [&](const SearchMsg& q) { return q.root == s.root; });
  tree_q_.push_back(s);
  tree_prioritize_leader();
}

void WPaxos::tree_prioritize_leader() {
  if (!cfg_.tree_priority) return;
  const auto it = std::find_if(
      tree_q_.begin(), tree_q_.end(),
      [&](const SearchMsg& q) { return q.root == omega_; });
  // Move it to the head; the others keep their relative order.
  if (it != tree_q_.end()) std::rotate(tree_q_.begin(), it, it + 1);
}

// ---------------------------------------------------------------- proposer

void WPaxos::generate_new_proposal(mac::Context& ctx) {
  if (decided_) return;
  attempts_left_ = kProposalsPerChange;
  start_proposal(ctx);
}

void WPaxos::start_proposal(mac::Context& ctx) {
  if (decided_ || attempts_left_ <= 0) return;
  --attempts_left_;
  ++proposals_started_;
  ++max_tag_;
  current_ = ProposalNumber{max_tag_, id_};
  pphase_ = PropPhase::kPrepare;
  yes_ = 0;
  no_ = 0;
  best_prev_.reset();

  const ProposerMsg msg{ProposerMsg::Kind::kPrepare, current_, 0};
  // Flood queue invariant: the newest own proposition supersedes anything
  // queued; the at-most-once guard skips our own echo.
  proposer_q_ = msg;
  last_processed_ = {msg.pn, rank(msg.kind)};
  processed_any_ = true;
  max_pn_from_leader_ = std::max(max_pn_from_leader_, msg.pn);
  // The proposer's own acceptor handles its messages directly (§4.2.1).
  route_response(acceptor_respond(msg), ctx);
}

void WPaxos::consume_response(const AcceptorResponse& r, mac::Context& ctx) {
  if (decided_ || pphase_ == PropPhase::kIdle || r.pn != current_) return;
  const auto expected = pphase_ == PropPhase::kPrepare
                            ? AcceptorResponse::Stage::kPrepare
                            : AcceptorResponse::Stage::kPropose;
  if (r.stage != expected) return;
  if (r.positive) {
    yes_ += r.count;
    if (r.prev && (!best_prev_ || r.prev->pn > best_prev_->pn)) {
      best_prev_ = r.prev;
    }
  } else {
    no_ += r.count;
    max_tag_ = std::max(max_tag_, r.max_committed.tag);
  }
  check_thresholds(ctx);
}

void WPaxos::check_thresholds(mac::Context& ctx) {
  if (2 * yes_ > n_) {
    if (pphase_ == PropPhase::kPrepare) {
      // Promised by a majority: move to the propose stage with the value of
      // the highest-numbered previously accepted proposal, if any.
      pphase_ = PropPhase::kPropose;
      prop_value_ = best_prev_ ? best_prev_->value : value_;
      yes_ = 0;
      no_ = 0;
      const ProposerMsg msg{ProposerMsg::Kind::kPropose, current_,
                            prop_value_};
      proposer_q_ = msg;
      last_processed_ = {msg.pn, rank(msg.kind)};
      route_response(acceptor_respond(msg), ctx);
    } else {
      // Accepted by a majority: decide and flood the decision.
      adopt_decision(prop_value_, ctx);
    }
    return;
  }
  if (2 * (n_ - std::min<std::uint64_t>(no_, n_)) <= n_) {
    // A yes-majority is out of reach: retry now. A majority of rejections
    // would not do as the trigger: with even n a vote can split at
    // yes = no = n/2, and with no change event left nothing would start
    // another proposal. The rejections carried their acceptors' promises,
    // so the retry (if the budget and leadership allow) uses a larger tag.
    //
    // Two attempts per change notification (§4.2) still suffice, although
    // the retry may now fire before every response is in. It fires with
    // no >= n/2, and yes >= 1: the proposer's own acceptor answers its
    // proposal synchronously and always positively, because an acceptor
    // only ever promises numbers whose tag max_tag_ has already absorbed.
    // So a strict majority of acceptors has answered, each holding a
    // promise of tag <= max_tag_, and the retry is numbered
    // (max_tag_ + 1, id_), above all of them. After stabilization the
    // leader is the only proposer, nothing raises those promises again,
    // and that majority promises and then accepts the retry; the responses
    // still missing are a minority and cannot block it.
    pphase_ = PropPhase::kIdle;
    if (omega_ == id_ && attempts_left_ > 0) start_proposal(ctx);
  }
}

// ---------------------------------------------------------------- acceptor

AcceptorResponse WPaxos::acceptor_respond(const ProposerMsg& m) {
  AcceptorResponse r;
  r.pn = m.pn;
  r.count = 1;
  if (m.kind == ProposerMsg::Kind::kPrepare) {
    r.stage = AcceptorResponse::Stage::kPrepare;
    if (m.pn > promised_) {
      promised_ = m.pn;
      r.positive = true;
      r.prev = accepted_;
    } else {
      r.positive = false;
      r.max_committed = promised_;
    }
  } else {
    AMAC_EXPECTS(m.kind == ProposerMsg::Kind::kPropose);
    r.stage = AcceptorResponse::Stage::kPropose;
    if (m.pn >= promised_) {
      promised_ = m.pn;
      accepted_ = Proposal{m.pn, m.value};
      r.positive = true;
    } else {
      r.positive = false;
      r.max_committed = promised_;
    }
  }
  if (cfg_.track_responses && r.positive) {
    positive_log_.insert({r.pn, static_cast<std::uint8_t>(r.stage)});
  }
  return r;
}

void WPaxos::process_proposer(const ProposerMsg& m, mac::Context& ctx) {
  if (m.kind == ProposerMsg::Kind::kDecide) {
    adopt_decision(m.value, ctx);
    return;
  }
  if (decided_) return;
  // A proposition from id X is evidence that X exists: feed the leader
  // election service before the leader gate below.
  if (m.pn.id > omega_) process_leader(m.pn.id, ctx);

  // Any observed proposition teaches us its tag, so a future proposal of
  // ours is numbered above everything already in flight.
  max_tag_ = std::max(max_tag_, m.pn.tag);

  // Queue invariants (§4.2.1): only the current leader's propositions are
  // relayed and answered. This gate must run BEFORE the at-most-once
  // cursor below advances: a deposed leader may have flooded a larger
  // proposal number than the new leader's first proposition (pn order is
  // (tag, id), and the loser can hold the larger tag), and a cursor parked
  // at that stale maximum would silently swallow the real leader's flood —
  // no relay, no response, not even a rejection — wedging the proposer
  // below the majority threshold with nothing left to trigger a retry.
  if (m.pn.id != omega_) return;

  // At-most-once processing per (pn, kind), monotonically increasing
  // within the current leader's propositions (the cursor resets on
  // leadership change; omega_ itself is monotone, so a deposed leader's
  // duplicates can never sneak back past the gate above).
  const std::pair<ProposalNumber, std::uint8_t> key{m.pn, rank(m.kind)};
  if (processed_any_ && key <= last_processed_) return;
  last_processed_ = key;
  processed_any_ = true;

  max_pn_from_leader_ = std::max(max_pn_from_leader_, m.pn);
  prune_responses();
  proposer_q_ = m;  // flood relay (supersedes anything older)
  route_response(acceptor_respond(m), ctx);

  if (!cfg_.change_gating && omega_ == id_) generate_new_proposal(ctx);
}

void WPaxos::route_response(AcceptorResponse r, mac::Context& ctx) {
  if (r.pn.id == id_) {
    consume_response(r, ctx);
  } else {
    response_enqueue(std::move(r));
  }
}

void WPaxos::process_response(const AcceptorResponse& r, mac::Context& ctx) {
  if (decided_) return;
  // Broadcast-as-unicast: only the addressed next hop handles a response.
  if (r.dest != id_) return;
  route_response(r, ctx);
}

void WPaxos::response_enqueue(AcceptorResponse r) {
  // Queue invariants (§4.2.1): responses only for the current leader's
  // largest proposition.
  if (r.pn.id != omega_ || r.pn < max_pn_from_leader_) return;
  max_pn_from_leader_ = std::max(max_pn_from_leader_, r.pn);
  prune_responses();
  if (cfg_.aggregate_responses) {
    for (auto& q : response_q_) {
      if (q.can_merge(r)) {
        q.merge(r);
        ++responses_merged_;
        return;
      }
    }
  }
  response_q_.push_back(std::move(r));
}

void WPaxos::prune_responses() {
  std::erase_if(response_q_, [&](const AcceptorResponse& r) {
    return r.pn.id != omega_ || r.pn < max_pn_from_leader_;
  });
}

// ---------------------------------------------------------------- decision

void WPaxos::adopt_decision(mac::Value v, mac::Context& ctx) {
  if (decided_) return;
  decided_ = true;
  decision_value_ = v;
  decide_relay_pending_ = true;
  // Wind down: only the decide flood remains.
  leader_q_.reset();
  change_q_.reset();
  tree_q_.clear();
  proposer_q_.reset();
  response_q_.clear();
  pphase_ = PropPhase::kIdle;
  ctx.decide(v);
}

// ------------------------------------------------- broadcast service (A5)

void WPaxos::maybe_send(mac::Context& ctx) {
  if (ctx.busy()) return;

  WireEnvelope env;
  env.sender_id = id_;

  if (decided_) {
    if (!decide_relay_pending_) return;
    decide_relay_pending_ = false;
    env.body.proposer =
        ProposerMsg{ProposerMsg::Kind::kDecide, ProposalNumber::zero(),
                    decision_value_};
    env.encode_into(wire_scratch_, body_scratch_);
    ctx.broadcast(wire_scratch_);
    return;
  }

  if (leader_q_) {
    env.body.leader = *leader_q_;
    leader_q_.reset();
  }
  if (change_q_) {
    env.body.change = *change_q_;
    change_q_.reset();
  }
  if (!tree_q_.empty()) {
    env.body.search = tree_q_.front();
    tree_q_.erase(tree_q_.begin());
  }
  if (proposer_q_) {
    env.body.proposer = *proposer_q_;
    proposer_q_.reset();
  }
  // First sendable response: destination = the CURRENT parent toward the
  // proposer; entries whose parent is still unknown stay queued.
  for (auto it = response_q_.begin(); it != response_q_.end(); ++it) {
    const auto p = tree_.find(it->pn.id);
    if (p == tree_.end()) continue;
    AcceptorResponse r = *it;
    r.dest = p->second.parent;
    response_q_.erase(it);
    env.body.response = std::move(r);
    break;
  }

  if (env.body.empty()) return;
  env.encode_into(wire_scratch_, body_scratch_);
  ctx.broadcast(wire_scratch_);
}

// ------------------------------------------------------------- observables

WPaxos::ProposerSnapshot WPaxos::proposer_snapshot() const {
  ProposerSnapshot s;
  s.active = pphase_ != PropPhase::kIdle;
  s.stage = pphase_ == PropPhase::kPropose ? AcceptorResponse::Stage::kPropose
                                           : AcceptorResponse::Stage::kPrepare;
  s.pn = current_;
  s.yes = yes_;
  s.no = no_;
  return s;
}

bool WPaxos::responded_positive(const ProposalNumber& pn,
                                AcceptorResponse::Stage stage) const {
  return positive_log_.contains({pn, static_cast<std::uint8_t>(stage)});
}

std::unique_ptr<mac::Process> WPaxos::clone() const {
  return std::make_unique<WPaxos>(*this);
}

void WPaxos::protocol_stats(mac::ProtocolStats& out) const {
  // max_tag_ is the highest proposal-number tag this node has witnessed:
  // the wPAXOS analog of a round count (how deep the proposal/round
  // structure went before the run ended).
  out.max_round = std::max<std::uint64_t>(out.max_round, max_tag_);
  out.proposals += proposals_started_;
  out.change_events += change_events_;
}

void WPaxos::digest(util::Hasher& h) const {
  h.mix_u64(id_);
  h.mix_u64(n_);
  h.mix_i64(value_);
  h.mix_u64(omega_);
  h.mix_u64(last_change_.first);
  h.mix_u64(last_change_.second);
  // All distances, then all parents: the order the pinned digests hash.
  for (const auto& [root, e] : tree_) {
    h.mix_u64(root);
    h.mix_u64(e.dist);
  }
  for (const auto& [root, e] : tree_) {
    h.mix_u64(root);
    h.mix_u64(e.parent);
  }
  for (const auto& s : tree_q_) {
    h.mix_u64(s.root);
    h.mix_u64(s.hops);
  }
  promised_.digest(h);
  h.mix_bool(accepted_.has_value());
  if (accepted_) accepted_->digest(h);
  h.mix_u8(static_cast<std::uint8_t>(pphase_));
  current_.digest(h);
  h.mix_i64(prop_value_);
  h.mix_u64(yes_);
  h.mix_u64(no_);
  h.mix_u64(max_tag_);
  h.mix_bool(decided_);
  h.mix_i64(decision_value_);
  h.mix_u64(response_q_.size());
  for (const auto& r : response_q_) {
    h.mix_u8(static_cast<std::uint8_t>(r.stage));
    r.pn.digest(h);
    h.mix_bool(r.positive);
    h.mix_u64(r.count);
  }
}

}  // namespace amac::core::wpaxos
