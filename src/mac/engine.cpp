#include "mac/engine.hpp"

#include <algorithm>

namespace amac::mac {

Network::Network(const net::Graph& graph, const ProcessFactory& factory,
                 Scheduler& scheduler, const net::Graph* unreliable_overlay)
    : EngineCore(graph, unreliable_overlay), scheduler_(&scheduler),
      events_(scheduler.fack()) {
  build_nodes(factory);
}

void Network::queue_crash(const CrashPlan& plan) {
  Event e;
  e.t = plan.when;
  e.kind = EventKind::kCrash;
  e.seq = next_seq_++;
  e.node = plan.node;
  events_.push(e);
}

std::size_t Network::in_flight_from(NodeId sender,
                                    InstanceId instance) const {
  AMAC_EXPECTS(sender < nodes_.size());
  AMAC_EXPECTS(instance < instance_count());
  // Live (non-tombstoned) pending entries; tracks pending occupancy exactly
  // because each entry is retired by exactly one deliver copy, popped or
  // discarded with the rest of its run. A released flight counts 0.
  std::size_t count = 0;
  for (const Flight& flight : flights_) {
    if (flight.sender == sender && flight.instance == instance) {
      count += flight.undrained_events;
    }
  }
  return count;
}

void Network::for_each_in_flight(
    const std::function<void(NodeId, NodeId, const util::Buffer&)>& fn) const {
  for (const Flight& flight : flights_) {
    // A released flight has nothing pending. A crashed sender's undelivered
    // copies will never arrive; they are no longer "in flight" for
    // accounting purposes.
    if (flight.undrained_events == 0 || nodes_[flight.sender].crashed) {
      continue;
    }
    for (const NodeId receiver : flight.pending) {
      if (receiver == kNoNode) continue;  // tombstone: already delivered
      fn(flight.sender, receiver, flight.payload);
    }
  }
}

void Network::release_flight(std::uint32_t slot) {
  Flight& flight = flights_[slot];
  AMAC_ENSURES(flight.undrained_events == 0);
  flight.pending.clear();  // all tombstones by now; capacity is recycled
  free_flights_.push_back(slot);
  if (retired(flight.instance)) return;  // its footprint went at retire
  InstanceStats& stats = live_instance(flight.instance).stats;
  AMAC_ENSURES(stats.live_pool_slots > 0);
  --stats.live_pool_slots;
  stats.live_pool_bytes -= flight.payload.size();
}

void Network::start_broadcast(NodeId u, InstanceId instance,
                              const util::Buffer& payload) {
  if (nodes_[u].crashed) return;
  Instance& inst = live_instance(instance);
  InstanceNode& st = live_node(instance, u);
  if (st.busy) {
    // Model rule: extra broadcasts while one is outstanding are discarded.
    // Busy is per (node, instance): each instance has its own logical MAC
    // channel, so instance A's outstanding broadcast never discards B's.
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
  BroadcastSchedule& sched = schedule_scratch_;
  scheduler_->schedule(u, now_, neighbors, sched);
  AMAC_ENSURES(sched.ack_delay >= 1);
  AMAC_ENSURES(sched.size() == neighbors.size());

  auto& best_effort = unreliable_scratch_;
  best_effort.clear();
  if (overlay_ != nullptr && !overlay_->neighbors(u).empty()) {
    scheduler_->schedule_unreliable(u, now_, overlay_->neighbors(u),
                                    sched.ack_delay, best_effort);
  }

  const std::size_t fanout = sched.size();
  Time ack_at = now_ + sched.ack_delay;

  // Link-fault partition (design doc: "Unreliable links"). With a plan
  // installed every reliable copy gets a pure hash verdict; dropped copies
  // consume no seq, deferred copies and duplicates stretch the ack so
  // receives still precede it. Without one every copy is kept and no
  // per-copy decision runs. The plan never touches the best-effort overlay
  // — those edges carry no delivery guarantee to break.
  const bool faulted = !faults_.empty() && fanout > 0;
  std::size_t kept = fanout;     // copies at the scheduler's own tick
  std::size_t emitted = fanout;  // reliable copies that will be scheduled
  if (faulted) {
    fault_scratch_.clear();
    kept = 0;
    emitted = 0;
    Time latest = 0;
    for (std::size_t i = 0; i < fanout; ++i) {
      const Time arrival = now_ + sched.delay(i);
      const LinkFaultDecision d =
          faults_.decide(id, u, sched.receivers[i], arrival);
      fault_scratch_.push_back(d);
      if (!d.deliver) {
        ++inst.stats.drops;
        continue;
      }
      ++emitted;
      if (d.deliver_at == arrival) {
        ++kept;
      } else {
        ++inst.stats.drops;  // lost, retransmitted
      }
      latest = std::max(latest, d.deliver_at);
      if (d.duplicate) {
        ++emitted;
        ++inst.stats.duplicates;
        latest = std::max(latest, d.duplicate_at);
      }
    }
    ack_at = std::max(ack_at, latest);
  }

  if (emitted + best_effort.size() > 0) {
    // Acquire a flight slot only when someone will hear the broadcast; its
    // payload, pending and lane capacity are recycled across broadcasts.
    // (An all-dropped fan-out must not acquire one: with no deliver events
    // left to drain it, the flight would leak.)
    std::uint32_t slot;
    if (!free_flights_.empty()) {
      slot = free_flights_.back();
      free_flights_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(flights_.size());
      flights_.emplace_back();
    }
    Flight& flight = flights_[slot];
    flight.sender = u;
    flight.payload.assign(payload.begin(), payload.end());
    flight.id = id;
    flight.instance = instance;
    // Deliver events take consecutive seqs from here in pending-append
    // order (drops take none; the ack's seq comes after every copy's), so
    // the event popped later finds its slot at e.seq - first_seq.
    flight.first_seq = next_seq_;
    AMAC_ENSURES(flight.pending.empty() && flight.undrained_events == 0);
    ++inst.stats.live_pool_slots;
    inst.stats.peak_pool_slots = std::max(inst.stats.peak_pool_slots,
                                          inst.stats.live_pool_slots);
    inst.stats.live_pool_bytes += payload.size();
    inst.stats.peak_pool_bytes = std::max(inst.stats.peak_pool_bytes,
                                          inst.stats.live_pool_bytes);

    Event e;
    e.kind = EventKind::kDeliver;
    e.broadcast_id = id;
    e.flight_slot = slot;
    e.sender = u;
    e.instance = instance;
    e.reliable = true;
    // The one emission site: every copy takes the next seq and the next
    // pending slot, whichever group it belongs to.
    const auto copy = [&](NodeId v, Time t) {
      e.t = t;
      e.seq = next_seq_++;
      e.node = v;
      flight.pending.push_back(v);
      return e;
    };
    const auto is_kept = [&](std::size_t i) {
      if (!faulted) return true;
      const LinkFaultDecision& d = fault_scratch_[i];
      return d.deliver && d.deliver_at == now_ + sched.delay(i);
    };
#if AMAC_CHECK
    for (std::size_t i = 0; i < fanout; ++i) {
      AMAC_CHECK_ENSURES(graph_->has_edge(u, sched.receivers[i]));
    }
#endif
    // Canonical emission order (shared with ReferenceNetwork): kept copies
    // at their original ticks, then deferred copies, then duplicates —
    // schedule index order within each group — then best-effort copies.
    if (sched.uniform) {
      // Dense fast path: every kept copy shares one tick and takes the next
      // seq, so the kept subset is one run-length queue entry; a popped
      // copy finds its receiver in its pending slot.
      AMAC_ENSURES(fanout == 0 || (sched.uniform_delay >= 1 &&
                                   sched.uniform_delay <= sched.ack_delay));
      e.t = now_ + sched.uniform_delay;
      e.seq = next_seq_;
      for (std::size_t i = 0; i < fanout; ++i) {
        if (is_kept(i)) flight.pending.push_back(sched.receivers[i]);
      }
      next_seq_ += kept;
      events_.push_run(e, kept);
    } else {
      for (std::size_t i = 0; i < fanout; ++i) {
        const Time delay = sched.delays[i];
        AMAC_ENSURES(delay >= 1 && delay <= sched.ack_delay);
        if (is_kept(i)) events_.push(copy(sched.receivers[i], now_ + delay));
      }
    }
    if (faulted) {
      for (std::size_t i = 0; i < fanout; ++i) {  // deferred copies
        const LinkFaultDecision& d = fault_scratch_[i];
        if (d.deliver && !is_kept(i)) {
          events_.push(copy(sched.receivers[i], d.deliver_at));
        }
      }
      for (std::size_t i = 0; i < fanout; ++i) {  // duplicates
        const LinkFaultDecision& d = fault_scratch_[i];
        if (d.duplicate) events_.push(copy(sched.receivers[i], d.duplicate_at));
      }
    }
    e.reliable = false;
    for (const auto& [v, delay] : best_effort) {
      AMAC_ENSURES(delay >= 1 && delay <= sched.ack_delay);
      AMAC_CHECK_ENSURES(overlay_->has_edge(u, v));
      events_.push(copy(v, now_ + delay));
    }
    flight.undrained_events = flight.pending.size();  // one event per copy
  }

  Event ack;
  ack.t = ack_at;
  ack.kind = EventKind::kAck;
  ack.seq = next_seq_++;
  ack.node = u;
  ack.broadcast_id = id;
  ack.instance = instance;
  events_.push(ack);
}

void Network::trace_event(const Event& e) {
  // Event::instance is deliberately NOT mixed (see enable_trace_digest):
  // single-instance digests must match the pre-instance engine bit for bit.
  trace_hasher_.mix_u64(e.t);
  trace_hasher_.mix_u8(static_cast<std::uint8_t>(e.kind));
  trace_hasher_.mix_u64(e.seq);
  trace_hasher_.mix_u64(e.node);
  trace_hasher_.mix_u64(e.sender);
  trace_hasher_.mix_u64(e.broadcast_id);
  if (e.kind == EventKind::kDeliver) {
    trace_hasher_.mix_bytes(flights_[e.flight_slot].payload);
    trace_hasher_.mix_bool(e.reliable);
  }
}

void Network::process_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kCrash:
      crash(e.node);
      return;
    case EventKind::kDeliver: {
      // The flight strictly outlives its deliver events, and flights_ is a
      // deque: a callback's broadcast below may grow it, but never moves
      // this flight or its payload.
      Flight& flight = flights_[e.flight_slot];
      AMAC_ENSURES(flight.id == e.broadcast_id);
      AMAC_ENSURES(flight.instance == e.instance);
      // O(1) retire: the seq-derived slot (see Flight) is tombstoned in
      // place — erase-by-find here made clique rounds O(n^3) overall.
      AMAC_ENSURES(e.node != kNoNode);  // read from its pending slot: live
      flight.pending[e.seq - flight.first_seq] = kNoNode;
      --flight.undrained_events;

      const auto& sender_st = nodes_[e.sender];
      // Cancelled if the sender crashed strictly before this delivery: the
      // non-atomic broadcast reached only the earlier-scheduled neighbors.
      const bool cancelled =
          sender_st.crashed && sender_st.crash_time < e.t;
      // A retired instance's events are pure bookkeeping: the flight still
      // drains (releasing its slot) but no callback or counter runs, and
      // nothing reads the pool slot, which a later instance may own.
      if (!retired(e.instance)) {
        if (!cancelled && !nodes_[e.node].crashed) {
          ++live_instance(e.instance).stats.deliveries;
          NodeContext ctx(*this, e.node, e.instance);
          const Packet packet{e.sender, flight.payload, e.reliable};
          live_node(e.instance, e.node).process->on_receive(packet, ctx);
        }
      } else if (e.run > 1 && !post_event_hook_) {
        // The rest of this copy's run is bookkeeping too (same retired
        // instance, same tick) and, its seqs being consecutive, would pop
        // next: drop it in one step instead of copy by copy. A post-event
        // hook may read in-flight state between copies, so it keeps the
        // per-copy path.
        const std::size_t rest = e.run - 1;
        Event copy = e;
        for (std::size_t k = 1; k <= rest; ++k) {
          ++copy.seq;
          NodeId& pending = flight.pending[copy.seq - flight.first_seq];
          AMAC_ENSURES(pending != kNoNode);
          copy.node = pending;
          pending = kNoNode;
          if (trace_enabled_) trace_event(copy);
        }
        AMAC_ENSURES(flight.undrained_events >= rest);
        flight.undrained_events -= rest;
        events_.discard_run(rest);
        stats_.discarded_copies += rest;
      }
      if (flight.undrained_events == 0) release_flight(e.flight_slot);
      return;
    }
    case EventKind::kAck: {
      // Retired mid-flight (its busy flag went with its table), or a
      // crashed sender: nothing to do.
      if (retired(e.instance) || nodes_[e.node].crashed) return;
      InstanceNode& st = live_node(e.instance, e.node);
      AMAC_ENSURES(st.busy && st.current_broadcast == e.broadcast_id);
      st.busy = false;
      ++live_instance(e.instance).stats.acks;
      NodeContext ctx(*this, e.node, e.instance);
      st.process->on_ack(ctx);
      return;
    }
  }
}

RunResult Network::run(StopWhen until, Time max_time) {
  start_run();

  const auto condition_met = [&] {
    return until == StopWhen::kAllDecided && all_alive_decided();
  };
  const auto finish = [&](bool met) {
    stats_.peak_events = events_.peak_size();
    stats_.wheel_pushes = events_.wheel_pushes();
    stats_.overflow_pushes = events_.overflow_pushes();
    stats_.batch_pushes = events_.batch_reservations();
    return finish_run(met);
  };

  while (!events_.empty()) {
    if (condition_met()) return finish(true);
    if (events_.next_time() > max_time) return finish(condition_met());
    Event e = events_.pop();
    AMAC_ENSURES(e.t >= now_);
    now_ = e.t;
    if (e.kind == EventKind::kDeliver) {
      // A run entry names no receiver per copy: each copy's receiver is
      // its seq-derived pending slot (see Flight).
      const Flight& flight = flights_[e.flight_slot];
      const auto idx = static_cast<std::size_t>(e.seq - flight.first_seq);
      AMAC_ENSURES(idx < flight.pending.size());
      e.node = flight.pending[idx];
    }
    if (trace_enabled_) trace_event(e);
    process_event(e);
    if (post_event_hook_) post_event_hook_(*this);
    if (completed_) {
      completed_ = false;  // cleared first: the hook may complete more
      if (completion_hook_) completion_hook_(*this);
    }
  }
  // Queue drained: quiescent.
  const bool met = until == StopWhen::kQuiescent || all_alive_decided();
  return finish(met);
}

}  // namespace amac::mac
