#include "mac/schedulers.hpp"

#include <algorithm>

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
  const auto hold = held_senders_.find(sender);
  if (hold == held_senders_.end() || !hold_is_live(hold->second, now)) return;
  out.densify();  // holds adjust individual entries
  const Time release = hold->second;
  for (Time& delay : out.delays) {
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

Time canonicalize_script(std::vector<ScriptSlot>& slots,
                         std::size_t node_count) {
  std::erase_if(slots,
                [&](const ScriptSlot& t) { return t.sender >= node_count; });
  Time fack = 1;
  for (ScriptSlot& t : slots) {
    t.ack = std::max<Time>(t.ack, 1);
    fack = std::max(fack, t.ack);
    if (t.delays.empty()) {
      t.recv = std::clamp<Time>(t.recv, 1, t.ack);
      continue;
    }
    auto& delays = t.delays;
    std::erase_if(delays,
                  [&](const auto& d) { return d.first >= node_count; });
    // A stable sort keeps each receiver's entries in listing order, so the
    // last of each run is the later one, which wins.
    std::stable_sort(delays.begin(), delays.end(), [](const auto& a,
                                                      const auto& b) {
      return a.first < b.first;
    });
    std::size_t kept = 0;
    for (const auto& d : delays) {
      if (kept > 0 && delays[kept - 1].first == d.first) --kept;
      delays[kept++] = d;
    }
    delays.resize(kept);
    t.recv = 1;
    for (auto& [receiver, delay] : delays) {
      delay = std::clamp<Time>(delay, 1, t.ack);
      t.recv = std::max(t.recv, delay);
    }
  }
  return fack;
}

ScriptedScheduler::ScriptedScheduler(std::vector<ScriptSlot> slots,
                                     std::size_t node_count) {
  canonicalize_script(slots, node_count);
  for (ScriptSlot& t : slots) add(std::move(t));
}

void ScriptedScheduler::script(NodeId sender, std::uint32_t index,
                               Time ack_delay,
                               std::vector<std::pair<NodeId, Time>> delays) {
  AMAC_EXPECTS(sender != kNoNode && ack_delay >= 1);
  for (const auto& [receiver, delay] : delays) {
    AMAC_EXPECTS(receiver != kNoNode && delay >= 1 && delay <= ack_delay);
  }
  std::vector<ScriptSlot> slot{
      {sender, index, ack_delay, 1, std::move(delays)}};
  canonicalize_script(slot, kNoNode);  // sorts and dedupes; drops nothing
  add(std::move(slot.front()));
}

void ScriptedScheduler::script_uniform(NodeId sender, std::uint32_t index,
                                       Time ack_delay, Time receive_delay) {
  AMAC_EXPECTS(ack_delay >= 1);
  AMAC_EXPECTS(receive_delay >= 1 && receive_delay <= ack_delay);
  add(ScriptSlot{sender, index, ack_delay, receive_delay, {}});
}

void ScriptedScheduler::add(ScriptSlot slot) {
  max_ack_ = std::max(max_ack_, slot.ack);
  const std::pair<NodeId, std::size_t> key{slot.sender, slot.index};
  slots_.insert_or_assign(key, std::move(slot));
}

void ScriptedScheduler::schedule(NodeId sender, Time /*now*/,
                                 const std::vector<NodeId>& neighbors,
                                 BroadcastSchedule& out) {
  out.reset();
  if (sender >= broadcast_counts_.size()) {
    broadcast_counts_.resize(sender + 1, 0);
  }
  const std::size_t index = broadcast_counts_[sender]++;
  const auto it = slots_.find({sender, index});
  if (it == slots_.end()) {
    out.ack_delay = 1;
    out.assign_uniform(neighbors, 1);
    return;
  }
  const ScriptSlot& slot = it->second;
  out.ack_delay = slot.ack;
  if (slot.delays.empty()) {
    // Dense uniform slot: one shared delay, batch fan-out downstream.
    out.assign_uniform(neighbors, slot.recv);
    return;
  }
  for (const NodeId v : neighbors) {
    const auto listed = std::lower_bound(
        slot.delays.begin(), slot.delays.end(), std::pair<NodeId, Time>{v, 0});
    const bool found = listed != slot.delays.end() && listed->first == v;
    out.push(v, found ? listed->second : 1);
  }
}

}  // namespace amac::mac
