#include "mac/reference_engine.hpp"

#include <algorithm>

namespace amac::mac {

ReferenceNetwork::ReferenceNetwork(const net::Graph& graph,
                                   const ProcessFactory& factory,
                                   Scheduler& scheduler,
                                   const net::Graph* unreliable_overlay)
    : EngineCore(graph, unreliable_overlay), scheduler_(&scheduler) {
  build_nodes(factory);
}

void ReferenceNetwork::push_event(RefEvent e) {
  events_.push(std::move(e));
  if (events_.size() > stats_.peak_events) {
    stats_.peak_events = events_.size();
  }
}

void ReferenceNetwork::queue_crash(const CrashPlan& plan) {
  push_event(RefEvent{plan.when, RefEventKind::kCrash, next_seq_++, plan.node,
                      kNoNode, 0, nullptr});
}

std::size_t ReferenceNetwork::in_flight_from(NodeId sender) const {
  AMAC_EXPECTS(sender < nodes_.size());
  std::size_t count = 0;
  for (const auto& [id, flight] : flights_) {
    if (flight.sender == sender && flight.instance == 0) {
      count += flight.pending.size();
    }
  }
  return count;
}

void ReferenceNetwork::for_each_in_flight(
    const std::function<void(NodeId, NodeId, const util::Buffer&)>& fn) const {
  for (const auto& [id, flight] : flights_) {
    if (nodes_[flight.sender].crashed) continue;
    for (const NodeId receiver : flight.pending) {
      fn(flight.sender, receiver, *flight.payload);
    }
  }
}

void ReferenceNetwork::start_broadcast(NodeId u, InstanceId instance,
                                       const util::Buffer& payload) {
  if (nodes_[u].crashed) return;
  Instance& inst = live_instance(instance);
  InstanceNode& st = live_node(instance, u);
  if (st.busy) {
    ++inst.stats.dropped_busy;
    return;
  }
  st.busy = true;
  const std::uint64_t id = next_broadcast_id_++;
  st.current_broadcast = id;
  ++inst.stats.broadcasts;
  inst.stats.payload_bytes += payload.size();
  inst.stats.max_payload_bytes = std::max(inst.stats.max_payload_bytes,
                                          payload.size());

  const auto& neighbors = graph_->neighbors(u);
  // Faithful to the original engine: one schedule allocation per broadcast.
  // (The schedule is SoA now, but this engine still walks it entry by entry
  // in emission order — identical event sequence, no fast paths.)
  BroadcastSchedule sched;
  scheduler_->schedule(u, now_, neighbors, sched);
  AMAC_ENSURES(sched.ack_delay >= 1);
  AMAC_ENSURES(sched.size() == neighbors.size());

  auto shared = std::make_shared<const util::Buffer>(payload);
  Flight flight;
  flight.sender = u;
  flight.payload = shared;
  flight.instance = instance;
  Time ack_at = now_ + sched.ack_delay;
  if (faults_.empty()) {
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const NodeId v = sched.receivers[i];
      const Time delay = sched.delay(i);
      AMAC_ENSURES(delay >= 1 && delay <= sched.ack_delay);
      AMAC_ENSURES(graph_->has_edge(u, v));
      push_event(RefEvent{now_ + delay, RefEventKind::kDeliver, next_seq_++, v,
                          u, id, shared, instance, /*reliable=*/true});
      flight.pending.push_back(v);
      ++flight.undrained_events;
    }
  } else {
    // Identical fault partition and canonical emission order to the
    // calendar engine (kept at original ticks, then deferred, then
    // duplicates, index order within each group): the decisions are pure
    // hashes of the same inputs, so the two engines stay bit-identical.
    std::vector<LinkFaultDecision> decisions;
    decisions.reserve(sched.size());
    Time latest = 0;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Time arrival = now_ + sched.delay(i);
      const LinkFaultDecision d =
          faults_.decide(id, u, sched.receivers[i], arrival);
      decisions.push_back(d);
      if (!d.deliver) {
        ++inst.stats.drops;
        continue;
      }
      if (d.deliver_at != arrival) {
        ++inst.stats.drops;  // lost, retransmitted
      }
      latest = std::max(latest, d.deliver_at);
      if (d.duplicate) {
        ++inst.stats.duplicates;
        latest = std::max(latest, d.duplicate_at);
      }
    }
    ack_at = std::max(ack_at, latest);
    const auto emit = [&](NodeId v, Time t) {
      AMAC_ENSURES(graph_->has_edge(u, v));
      push_event(RefEvent{t, RefEventKind::kDeliver, next_seq_++, v, u, id,
                          shared, instance, /*reliable=*/true});
      flight.pending.push_back(v);
      ++flight.undrained_events;
    };
    for (std::size_t i = 0; i < sched.size(); ++i) {  // kept copies
      const LinkFaultDecision& d = decisions[i];
      if (!d.deliver || d.deliver_at != now_ + sched.delay(i)) continue;
      emit(sched.receivers[i], d.deliver_at);
    }
    for (std::size_t i = 0; i < sched.size(); ++i) {  // deferred copies
      const LinkFaultDecision& d = decisions[i];
      if (!d.deliver || d.deliver_at == now_ + sched.delay(i)) continue;
      emit(sched.receivers[i], d.deliver_at);
    }
    for (std::size_t i = 0; i < sched.size(); ++i) {  // duplicates
      const LinkFaultDecision& d = decisions[i];
      if (!d.deliver || !d.duplicate) continue;
      emit(sched.receivers[i], d.duplicate_at);
    }
  }
  if (overlay_ != nullptr && !overlay_->neighbors(u).empty()) {
    std::vector<std::pair<NodeId, Time>> best_effort;
    scheduler_->schedule_unreliable(u, now_, overlay_->neighbors(u),
                                    sched.ack_delay, best_effort);
    for (const auto& [v, delay] : best_effort) {
      AMAC_ENSURES(delay >= 1 && delay <= sched.ack_delay);
      AMAC_ENSURES(overlay_->has_edge(u, v));
      push_event(RefEvent{now_ + delay, RefEventKind::kDeliver, next_seq_++,
                          v, u, id, shared, instance, /*reliable=*/false});
      flight.pending.push_back(v);
      ++flight.undrained_events;
    }
  }
  // An all-dropped fan-out leaves no deliver event to drain the flight;
  // skip the table entry (the calendar engine acquires no flight slot
  // either).
  if (faults_.empty() || flight.undrained_events > 0) {
    flights_.emplace(id, std::move(flight));
  }
  push_event(RefEvent{ack_at, RefEventKind::kAck, next_seq_++,
                      u, kNoNode, id, nullptr, instance});
}

void ReferenceNetwork::trace_event(const RefEvent& e) {
  trace_hasher_.mix_u64(e.t);
  trace_hasher_.mix_u8(static_cast<std::uint8_t>(e.kind));
  trace_hasher_.mix_u64(e.seq);
  trace_hasher_.mix_u64(e.node);
  trace_hasher_.mix_u64(e.sender);
  trace_hasher_.mix_u64(e.broadcast_id);
  if (e.kind == RefEventKind::kDeliver) {
    trace_hasher_.mix_bytes(*e.payload);
    trace_hasher_.mix_bool(e.reliable);
  }
}

void ReferenceNetwork::process_event(const RefEvent& e) {
  switch (e.kind) {
    case RefEventKind::kCrash:
      crash(e.node);
      return;
    case RefEventKind::kDeliver: {
      auto flight_it = flights_.find(e.broadcast_id);
      AMAC_ENSURES(flight_it != flights_.end());
      Flight& flight = flight_it->second;
      AMAC_ENSURES(flight.instance == e.instance);
      auto& pending = flight.pending;
      pending.erase(std::find(pending.begin(), pending.end(), e.node));
      const bool drained = --flight.undrained_events == 0;

      const auto& sender_st = nodes_[e.sender];
      const bool cancelled =
          sender_st.crashed && sender_st.crash_time < e.t;
      Instance& inst = live_instance(e.instance);
      if (!cancelled && !nodes_[e.node].crashed) {
        ++inst.stats.deliveries;
        NodeContext ctx(*this, e.node, e.instance);
        const Packet packet{e.sender, *e.payload, e.reliable};
        live_node(e.instance, e.node).process->on_receive(packet, ctx);
      }
      if (drained) flights_.erase(flight_it);
      return;
    }
    case RefEventKind::kAck: {
      if (nodes_[e.node].crashed) return;
      Instance& inst = live_instance(e.instance);
      InstanceNode& st = live_node(e.instance, e.node);
      AMAC_ENSURES(st.busy && st.current_broadcast == e.broadcast_id);
      st.busy = false;
      ++inst.stats.acks;
      NodeContext ctx(*this, e.node, e.instance);
      st.process->on_ack(ctx);
      return;
    }
  }
}

RunResult ReferenceNetwork::run(StopWhen until, Time max_time) {
  start_run();

  const auto condition_met = [&] {
    return until == StopWhen::kAllDecided && all_alive_decided();
  };

  while (!events_.empty()) {
    if (condition_met()) return finish_run(true);
    const RefEvent e = events_.top();
    if (e.t > max_time) return finish_run(condition_met());
    events_.pop();
    AMAC_ENSURES(e.t >= now_);
    now_ = e.t;
    if (trace_enabled_) trace_event(e);
    process_event(e);
    if (post_event_hook_) post_event_hook_(*this);
  }
  // Queue drained: quiescent.
  const bool met = until == StopWhen::kQuiescent || all_alive_decided();
  return finish_run(met);
}

}  // namespace amac::mac
