#include "mac/schedulers.hpp"

#include "util/hash.hpp"

namespace amac::mac {

namespace {

/// The holdback release boundary, pinned in one place: a hold can move a
/// delivery iff its release is strictly past now + 1. Delays are >= 1, so
/// no delivery lands before now + 1 and a release at or before that tick
/// is already satisfied — in particular release == now + 1 must NOT
/// stretch any delay, and an expired hold must leave the base schedule's
/// dense uniform form untouched so the engine's batch fan-out re-engages.
/// Exact-boundary tests: Schedulers.HoldbackReleaseBoundary* in
/// tests/test_mac_schedulers.cpp.
[[nodiscard]] constexpr bool hold_is_live(Time release, Time now) {
  return release > now + 1;
}

}  // namespace

void SynchronousScheduler::schedule(NodeId /*sender*/, Time /*now*/,
                                    const std::vector<NodeId>& neighbors,
                                    BroadcastSchedule& out) {
  out.reset();
  out.ack_delay = round_;
  out.assign_uniform(neighbors, round_);
}

void UniformRandomScheduler::schedule(NodeId /*sender*/, Time /*now*/,
                                      const std::vector<NodeId>& neighbors,
                                      BroadcastSchedule& out) {
  out.reset();
  out.ack_delay = rng_.uniform(1, fack_);
  for (const NodeId v : neighbors) out.push(v, rng_.uniform(1, out.ack_delay));
}

Time SkewedScheduler::edge_delay(NodeId from, NodeId to) const {
  util::Hasher h;
  h.mix_u64(seed_);
  h.mix_u64(from);
  h.mix_u64(to);
  return 1 + h.digest() % fack_;
}

void SkewedScheduler::schedule(NodeId sender, Time /*now*/,
                               const std::vector<NodeId>& neighbors,
                               BroadcastSchedule& out) {
  out.reset();
  out.ack_delay = 1;
  for (const NodeId v : neighbors) {
    const Time d = edge_delay(sender, v);
    out.push(v, d);
    out.ack_delay = std::max(out.ack_delay, d);
  }
}

void HoldbackScheduler::schedule(NodeId sender, Time now,
                                 const std::vector<NodeId>& neighbors,
                                 BroadcastSchedule& out) {
  base_->schedule(sender, now, neighbors, out);
  // Fast path: no live hold can adjust this broadcast — a hold moves a
  // delivery iff its release is beyond now + 1 (delays are >= 1) — so the
  // base schedule (and its dense/uniform form, if any) passes through
  // untouched. Expired holds therefore re-enable the engine's batch
  // fan-out instead of densifying forever.
  const auto sender_hold = held_senders_.find(sender);
  const bool sender_live = sender_hold != held_senders_.end() &&
                           hold_is_live(sender_hold->second, now);
  bool edge_live = false;
  for (auto it = held_edges_.lower_bound({sender, 0});
       it != held_edges_.end() && it->first.first == sender; ++it) {
    if (hold_is_live(it->second, now)) {
      edge_live = true;
      break;
    }
  }
  if (!sender_live && !edge_live) return;
  out.densify();  // holds adjust individual entries
  for (std::size_t i = 0; i < out.receivers.size(); ++i) {
    Time release = 0;
    if (sender_hold != held_senders_.end()) release = sender_hold->second;
    if (const auto edge_hold = held_edges_.find({sender, out.receivers[i]});
        edge_hold != held_edges_.end()) {
      release = std::max(release, edge_hold->second);
    }
    Time& delay = out.delays[i];
    if (now + delay < release) delay = release - now;
    out.ack_delay = std::max(out.ack_delay, delay);
  }
}

void ContentionScheduler::schedule(NodeId /*sender*/, Time now,
                                   const std::vector<NodeId>& neighbors,
                                   BroadcastSchedule& out) {
  out.reset();
  out.ack_delay = 1;
  for (const NodeId v : neighbors) {
    Time at = now + rng_.uniform(1, base_);
    if (v >= next_free_.size()) next_free_.resize(v + 1, 0);
    auto& free_at = next_free_[v];
    at = std::max(at, free_at);
    free_at = at + 1;
    const Time delay = at - now;
    AMAC_ENSURES(delay <= fack_bound_);  // raise fack_bound for this density
    out.push(v, delay);
    out.ack_delay = std::max(out.ack_delay, delay);
  }
}

void LossyScheduler::schedule_unreliable(
    NodeId /*sender*/, Time now, const std::vector<NodeId>& overlay_neighbors,
    Time ack_delay, std::vector<std::pair<NodeId, Time>>& out) {
  out.clear();
  if (now >= cutoff_) return;
  for (const NodeId v : overlay_neighbors) {
    if (!rng_.chance(probability_)) continue;
    const Time delay = rng_.uniform(1, ack_delay);
    // Never deliver at or past the cutoff.
    if (now + delay >= cutoff_) continue;
    out.emplace_back(v, delay);
  }
}

void ScriptedScheduler::script(NodeId sender, std::size_t index,
                               Time ack_delay,
                               std::vector<std::pair<NodeId, Time>> delays) {
  AMAC_EXPECTS(ack_delay >= 1);
  for (const auto& [receiver, delay] : delays) {
    AMAC_EXPECTS(delay >= 1 && delay <= ack_delay);
  }
  max_ack_ = std::max(max_ack_, ack_delay);
  script_[{sender, index}] = Entry{ack_delay, 0, std::move(delays)};
}

void ScriptedScheduler::script_uniform(NodeId sender, std::size_t index,
                                       Time ack_delay, Time receive_delay) {
  AMAC_EXPECTS(ack_delay >= 1);
  AMAC_EXPECTS(receive_delay >= 1 && receive_delay <= ack_delay);
  max_ack_ = std::max(max_ack_, ack_delay);
  script_[{sender, index}] = Entry{ack_delay, receive_delay, {}};
}

std::vector<ScriptedScheduler::SlotView> ScriptedScheduler::slots() const {
  std::vector<SlotView> out;
  out.reserve(script_.size());
  for (const auto& [key, entry] : script_) {
    SlotView v;
    v.sender = key.first;
    v.index = key.second;
    v.ack_delay = entry.ack_delay;
    v.uniform_delay = entry.uniform_delay;
    v.listed_receivers = entry.delays.size();
    out.push_back(v);
  }
  return out;
}

std::size_t ScriptedScheduler::broadcasts_issued(NodeId sender) const {
  const auto it = broadcast_counts_.find(sender);
  return it == broadcast_counts_.end() ? 0 : it->second;
}

void ScriptedScheduler::schedule(NodeId sender, Time /*now*/,
                                 const std::vector<NodeId>& neighbors,
                                 BroadcastSchedule& out) {
  out.reset();
  const std::size_t index = broadcast_counts_[sender]++;
  const auto it = script_.find({sender, index});
  if (it == script_.end()) {
    out.ack_delay = 1;
    out.assign_uniform(neighbors, 1);
    return;
  }
  const Entry& entry = it->second;
  out.ack_delay = entry.ack_delay;
  if (entry.uniform_delay > 0) {
    // Dense uniform slot: one shared delay, batch fan-out downstream.
    out.assign_uniform(neighbors, entry.uniform_delay);
    return;
  }
  for (const NodeId v : neighbors) {
    Time delay = 1;
    for (const auto& [receiver, d] : entry.delays) {
      if (receiver == v) delay = d;
    }
    out.push(v, delay);
  }
}

}  // namespace amac::mac
