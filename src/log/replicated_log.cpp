#include "log/replicated_log.hpp"

#include <algorithm>

#include "core/commit_flood.hpp"
#include "verify/checker.hpp"

namespace amac::log {

ReplicatedLog::ReplicatedLog(const net::Graph& graph,
                             mac::Scheduler& scheduler,
                             const Workload& workload, LogConfig config)
    : workload_(workload),
      config_(config),
      n_(graph.node_count()),
      total_slots_((workload.size() + config.batch_size - 1) /
                   config.batch_size),
      net_(graph, slot_factory(0, SlotMode::kElective, 0), scheduler),
      current_leader_(static_cast<NodeId>(n_ - 1)) {
  AMAC_EXPECTS(workload.size() > 0);
  AMAC_EXPECTS(config_.batch_size >= 1);
  AMAC_EXPECTS(config_.window >= 1);
  AMAC_EXPECTS(config_.lease_slots >= 1);
  AMAC_EXPECTS(n_ >= 2);
  // encode_renewal packs (batch id, proposer id) into one mac::Value.
  AMAC_EXPECTS(n_ <= (std::size_t{1} << kLeaderBits));
  AMAC_EXPECTS(total_slots_ <
               static_cast<std::size_t>(
                   std::numeric_limits<mac::Value>::max() >> kLeaderBits));

  for (const mac::CrashPlan& plan : config_.crashes) {
    net_.schedule_crash(plan);
  }

  slots_.resize(total_slots_);
  stats_.slots_total = total_slots_;
  stats_.decide_latency.assign(total_slots_, 0);
  stats_.relaunched_at.assign(total_slots_, 0);
  stats_.leader = current_leader_;
  stats_.lease_ok = true;

  // Slot 0 is instance 0 (built by the Network constructor) and always an
  // elective lease renewal; the rest of the initial window launches
  // pre-run.
  slots_[0].instance = 0;
  slots_[0].full_paxos = true;
  slots_[0].elective = true;
  ++stats_.slots_full_paxos;
  inflight_.push_back(0);
  next_launch_ = 1;
  launch_ready_slots();
}

std::pair<std::size_t, std::size_t> ReplicatedLog::batch_range(
    std::size_t slot) const {
  AMAC_EXPECTS(slot < total_slots_);
  const std::size_t first = slot * config_.batch_size;
  const std::size_t last =
      std::min(first + config_.batch_size, workload_.size());
  return {first, last};
}

mac::ProcessFactory ReplicatedLog::slot_factory(std::size_t slot,
                                                SlotMode mode,
                                                mac::Value forced) const {
  switch (mode) {
    case SlotMode::kElective: {
      // Renewal slot: node u proposes encode_renewal(slot, u), so the
      // winning proposer's identity rides the decided value — the slot IS
      // the election, and validity guarantees the decoded leader proposed.
      const std::size_t n = n_;
      const auto wpaxos = config_.wpaxos;
      return [slot, n, wpaxos](NodeId u) -> std::unique_ptr<mac::Process> {
        return std::make_unique<core::wpaxos::WPaxos>(
            u, n, encode_renewal(slot, u), wpaxos);
      };
    }
    case SlotMode::kForcedPaxos: {
      // Every node proposes the same value, so validity alone forces the
      // decision — used for slow-path slots while the lease is broken and
      // for recovery relaunches that must re-decide a carried-over value.
      const std::size_t n = n_;
      const auto wpaxos = config_.wpaxos;
      return [n, forced, wpaxos](NodeId u) -> std::unique_ptr<mac::Process> {
        return std::make_unique<core::wpaxos::WPaxos>(u, n, forced, wpaxos);
      };
    }
    case SlotMode::kLeased:
      break;
  }
  const NodeId leader = current_leader_;
  const auto value = static_cast<mac::Value>(slot);
  return [leader, value](NodeId u) -> std::unique_ptr<mac::Process> {
    return std::make_unique<core::CommitFlood>(u == leader, value);
  };
}

void ReplicatedLog::launch_ready_slots() {
  while (inflight_.size() < config_.window && next_launch_ < total_slots_) {
    const std::size_t slot = next_launch_++;
    const bool renewal = lease_renewal_slot(slot);
    const SlotMode mode = renewal      ? SlotMode::kElective
                          : lease_ok_ ? SlotMode::kLeased
                                      : SlotMode::kForcedPaxos;
    SlotRecord& rec = slots_[slot];
    rec.sole = static_cast<mac::Value>(slot);
    rec.elective = renewal;
    rec.instance = net_.add_instance(slot_factory(slot, mode, rec.sole));
    rec.launched_at = net_.now();
    rec.full_paxos = mode != SlotMode::kLeased;
    if (rec.full_paxos) {
      ++stats_.slots_full_paxos;
    } else {
      ++stats_.slots_leased;
    }
    inflight_.push_back(slot);
    just_launched_ = true;
  }
}

bool ReplicatedLog::slot_decided(mac::InstanceId instance) const {
  if (!net_.instance_all_decided(instance)) return false;
  // A slot with no decision stays in flight and stalls; recovery then
  // handles it like any other stall.
  for (NodeId u = 0; u < n_; ++u) {
    if (net_.decision(u, instance).decided) return true;
  }
  return false;
}

void ReplicatedLog::pump() {
  // Scan the (window-bounded) in-flight set for freshly decided slots.
  // slot_decided is O(1) for an undecided instance, so this is O(window)
  // per completing event — the service layer's constant, not a hidden
  // O(slots).
  bool any = false;
  for (std::size_t i = 0; i < inflight_.size();) {
    const std::size_t slot = inflight_[i];
    if (slot_decided(slots_[slot].instance)) {
      inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
      on_slot_decided(slot);
      any = true;
    } else {
      ++i;
    }
  }
  if (any) {
    apply_ready_prefix();
    serve_ready_reads();
    launch_ready_slots();
  }
}

void ReplicatedLog::on_slot_decided(std::size_t slot) {
  SlotRecord& rec = slots_[slot];
  rec.decided = true;
  rec.decided_at = net_.now();
  ++stats_.slots_decided;
  // Latency is measured from the slot's FIRST launch: a recovered slot's
  // stall is part of its decide latency (relaunched_at keeps the relaunch
  // tick as a separate diagnostic).
  stats_.decide_latency[slot] = rec.decided_at - rec.launched_at;
  read_bound_ = std::max(read_bound_, slot + 1);

  // Per-slot oracle: agreement + validity against the slot's proposable
  // inputs. Judged before retirement out of tidiness only — decisions
  // stay readable after retire_instance.
  std::vector<mac::Value>& inputs = oracle_inputs_;
  if (inputs.empty()) inputs.resize(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    inputs[u] = rec.elective ? encode_renewal(slot, static_cast<NodeId>(u))
                             : rec.sole;
  }
  const auto verdict = verify::check_consensus(net_, rec.instance, inputs);
  bool value_ok = false;
  if (verdict.decision.has_value()) {
    value_ok = rec.elective ? decode_batch(*verdict.decision) == slot
                            : *verdict.decision == rec.sole;
  }
  if (!verdict.ok() || !value_ok) {
    ++stats_.oracle_failures;
  }

  if (rec.elective && verdict.decision.has_value()) {
    // The decided renewal value names the new lease holder. A value
    // carried across a recovery relaunch can still name a crashed winner;
    // leave the lease broken then and let the next renewal re-elect.
    const NodeId winner = decode_leader(*verdict.decision);
    if (winner < n_ && !net_.crashed(winner)) {
      if (winner != current_leader_) {
        ++stats_.re_elections;
      }
      current_leader_ = winner;
      lease_ok_ = true;
      stats_.leader = current_leader_;
      stats_.lease_ok = true;
    }
  }

  if (config_.read_every != 0 && slot % config_.read_every == 0) {
    // Deterministic read stream: the slot's last written key, bound to
    // the freshest decided slot (which includes this one).
    const auto [first, last] = batch_range(slot);
    submit_read(workload_.op(last - 1).key);
  }

  const mac::InstanceStats& is = net_.instance_stats(rec.instance);
  stats_.payload_bytes += is.payload_bytes;
  stats_.broadcasts += is.broadcasts;
  net_.retire_instance(rec.instance);
}

void ReplicatedLog::apply_ready_prefix() {
  // Pipelined decides can land out of slot order; the state machine only
  // ever consumes the contiguous decided prefix, so application order is
  // slot order — the log's linearization guarantee.
  while (next_apply_ < total_slots_ && slots_[next_apply_].decided) {
    const auto [first, last] = batch_range(next_apply_);
    for (std::size_t i = first; i < last; ++i) {
      kv_.apply(i, workload_.op(i));
    }
    stats_.ops_applied += last - first;
    ++next_apply_;
  }
}

std::size_t ReplicatedLog::submit_read(std::uint32_t key) {
  ReadRecord r;
  r.key = key;
  r.bound = read_bound_;
  r.issued_at = net_.now();
  reads_.push_back(r);
  ++stats_.reads_issued;
  serve_ready_reads();
  return reads_.size() - 1;
}

void ReplicatedLog::serve_ready_reads() {
  // read_bound_ is monotone, so reads serve in issue order: the first
  // unserved read has the smallest freshness bound.
  while (next_read_serve_ < reads_.size()) {
    ReadRecord& r = reads_[next_read_serve_];
    if (r.bound > next_apply_) break;  // bound not yet in the applied prefix
    r.value = kv_.get(r.key);
    r.served_at = net_.now();
    r.served = true;
    ++stats_.reads_served;
    stats_.read_latency.push_back(r.served_at - r.issued_at);
    ++next_read_serve_;
  }
}

void ReplicatedLog::recover_stalled_slots() {
  // A leased slot can stall for good: a crashed leader floods nothing and
  // the queue drains. Relaunch stalled in-flight slots as full wPAXOS —
  // the slow path needs no leader and decides whenever a live majority can
  // still talk. The lease is broken from here until the next renewal slot
  // elects a live holder; slots launched in between take the slow path.
  lease_ok_ = false;
  stats_.lease_ok = false;
  for (const std::size_t slot : inflight_) {
    SlotRecord& rec = slots_[slot];
    if (rec.full_paxos) {
      // Already on the slow path. Relaunching would discard its partial
      // wPAXOS progress, so only relaunch a provably stalled instance: a
      // second recovery look with zero traffic since the first.
      const mac::InstanceStats& is = net_.instance_stats(rec.instance);
      const std::uint64_t progress = is.deliveries + is.broadcasts;
      if (!rec.progress_marked || progress != rec.progress) {
        rec.progress_marked = true;
        rec.progress = progress;
        continue;
      }
    }
    // Carry any decision out of the old instance: nodes that decided there
    // keep those decisions readable, so the replacement proposes exactly
    // that value and agreement across the retirement holds by
    // construction. An undecided elective slot relaunches electively —
    // the re-run election is among the live nodes.
    mac::Value forced = rec.sole;
    bool have_decision = false;
    for (std::size_t u = 0; u < n_; ++u) {
      const mac::Decision& d =
          net_.decision(static_cast<NodeId>(u), rec.instance);
      if (d.decided) {
        forced = d.value;
        have_decision = true;
        break;
      }
    }
    net_.retire_instance(rec.instance);
    const SlotMode mode = (rec.elective && !have_decision)
                              ? SlotMode::kElective
                              : SlotMode::kForcedPaxos;
    rec.instance = net_.add_instance(slot_factory(slot, mode, forced));
    if (!rec.elective) {
      rec.sole = forced;
    }
    rec.relaunched_at = net_.now();
    stats_.relaunched_at[slot] = rec.relaunched_at;
    rec.progress_marked = false;
    rec.progress = 0;
    if (!rec.full_paxos) {
      rec.full_paxos = true;
      --stats_.slots_leased;
      ++stats_.slots_full_paxos;
    }
    if (!rec.recovered) {
      rec.recovered = true;
      ++stats_.slots_recovered;
    }
    ++stats_.relaunches;
  }
}

const LogServiceStats& ReplicatedLog::drive(mac::Time horizon) {
  AMAC_EXPECTS(!driven_);  // one service run per ReplicatedLog
  driven_ = true;
  net_.set_completion_hook([this](mac::Network&) { pump(); });

  std::size_t recovery_rounds = 0;
  for (;;) {
    const auto result = net_.run(mac::StopWhen::kQuiescent, horizon);
    just_launched_ = false;
    pump();  // completions no later event reported (e.g. inside the hook)
    stats_.end_time = net_.now();
    if (next_apply_ == total_slots_) {
      stats_.complete = true;
      break;
    }
    if (!result.condition_met) {
      // Events were still pending when the budget ran out: the horizon,
      // not a stall, was binding — recovery cannot help.
      stats_.horizon_exhausted = true;
      break;
    }
    // Quiescent with undecided slots — even exactly at the horizon tick,
    // the event queue (not the budget) was the binding constraint. If the
    // final pump just launched fresh instances their events are merely
    // pending, not stalled: keep running without burning a recovery round.
    if (just_launched_) continue;
    if (recovery_rounds++ >= config_.max_recovery_rounds) break;
    recover_stalled_slots();
  }
  return stats_;
}

}  // namespace amac::log
