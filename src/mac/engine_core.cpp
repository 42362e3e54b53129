#include "mac/engine_core.hpp"

#include <algorithm>
#include <utility>

namespace amac::mac {

TrafficStats& TrafficStats::operator+=(const TrafficStats& from) {
  broadcasts += from.broadcasts;
  dropped_busy += from.dropped_busy;
  deliveries += from.deliveries;
  acks += from.acks;
  payload_bytes += from.payload_bytes;
  max_payload_bytes = std::max(max_payload_bytes, from.max_payload_bytes);
  drops += from.drops;
  duplicates += from.duplicates;
  return *this;
}

void EngineCore::NodeContext::decide(Value v) {
  Instance& inst = core_->live_instance(instance_);
  Decision& d =
      core_->decisions_[instance_ * core_->nodes_.size() + node_];
  AMAC_EXPECTS(!d.decided);
  d = Decision{true, v, core_->now_};
  AMAC_ENSURES(inst.undecided_alive > 0);
  if (--inst.undecided_alive == 0) core_->completed_ = true;
}

EngineCore::EngineCore(const net::Graph& graph,
                       const net::Graph* unreliable_overlay)
    : graph_(&graph), overlay_(unreliable_overlay) {
  if (overlay_ == nullptr) return;
  AMAC_EXPECTS(overlay_->node_count() == graph.node_count());
  // The two edge sets must be disjoint: an edge is either guaranteed or
  // best-effort, never both.
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    for (const NodeId v : overlay_->neighbors(u)) {
      AMAC_EXPECTS(!graph.has_edge(u, v));
    }
  }
}

void EngineCore::build_nodes(const ProcessFactory& factory) {
  AMAC_EXPECTS(nodes_.empty());
  nodes_.resize(graph_->node_count());
  (void)add_instance(factory);
}

void EngineCore::schedule_crash(const CrashPlan& plan) {
  AMAC_EXPECTS(plan.node < nodes_.size());
  AMAC_EXPECTS(!started_);
  queue_crash(plan);
}

void EngineCore::set_link_faults(const LinkFaultPlan& plan) {
  AMAC_EXPECTS(!started_);
  faults_ = plan;
}

InstanceId EngineCore::add_instance(const ProcessFactory& factory) {
  const auto id = static_cast<InstanceId>(instance_slot_.size());
  const std::size_t n = nodes_.size();
  if (free_slots_.empty()) {
    instance_slot_.push_back(static_cast<std::uint32_t>(pool_.size()));
    pool_.emplace_back();
    tables_.resize(tables_.size() + n);
  } else {
    instance_slot_.push_back(free_slots_.back());
    free_slots_.pop_back();
  }
  Instance& inst = live_instance(id);
  for (NodeId u = 0; u < n; ++u) {
    if (nodes_[u].crashed) continue;  // mid-run launch: the dead stay dead
    InstanceNode& st = live_node(id, u);
    st.process = factory(u);
    AMAC_ENSURES(st.process != nullptr);
    ++inst.undecided_alive;
  }
  if (inst.undecided_alive == 0) completed_ = true;  // every node crashed
  decisions_.resize(decisions_.size() + n);
  // Launched mid-run (e.g. a pipelined log slot): start callbacks fire
  // now, at the current tick — local computation takes zero time.
  if (started_) start_instance(id);
  return id;
}

void EngineCore::retire_instance(InstanceId instance) {
  AMAC_EXPECTS(instance < instance_slot_.size());
  if (retired(instance)) return;
  const std::size_t k = slot(instance);
  retired_traffic_ += pool_[k].stats;
  pool_[k] = Instance{};
  // Destroys the processes and clears busy flags a node may have left set
  // (broadcasting at retire, or crashed while busy): the next tenant starts
  // from a fresh table.
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    live_node(instance, u) = InstanceNode{};
  }
  free_slots_.push_back(static_cast<std::uint32_t>(k));
  instance_slot_[instance] = kRetired;
}

void EngineCore::start_instance(InstanceId instance) {
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    Process* const process = live_node(instance, u).process.get();
    if (process == nullptr) continue;
    NodeContext ctx(*this, u, instance);
    process->on_start(ctx);
  }
}

void EngineCore::start_run() {
  if (started_) return;
  started_ = true;
  for (InstanceId i = 0; i < instance_count(); ++i) {
    if (!retired(i)) start_instance(i);
  }
}

void EngineCore::crash(NodeId u) {
  NodeState& st = nodes_[u];
  if (st.crashed) return;
  st.crashed = true;
  st.crash_time = now_;
  // Retired instances already left the count.
  for (InstanceId i = 0; i < instance_count(); ++i) {
    if (retired(i) || decisions_[i * nodes_.size() + u].decided) continue;
    Instance& inst = live_instance(i);
    AMAC_ENSURES(inst.undecided_alive > 0);
    if (--inst.undecided_alive == 0) completed_ = true;
  }
}

RunResult EngineCore::finish_run(bool met) {
  // A free slot's header is zeroed, so the pool folds only live ledgers.
  TrafficStats& traffic = stats_;
  traffic = retired_traffic_;
  for (const Instance& inst : pool_) traffic += inst.stats;
  return RunResult{met, now_};
}

const Decision& EngineCore::decision(NodeId u, InstanceId instance) const {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instance_count());
  return decisions_[instance * nodes_.size() + u];
}

bool EngineCore::crashed(NodeId u) const {
  AMAC_EXPECTS(u < nodes_.size());
  return nodes_[u].crashed;
}

const InstanceStats& EngineCore::instance_stats(InstanceId instance) const {
  AMAC_EXPECTS(instance < instance_count() && !retired(instance));
  return live_instance(instance).stats;
}

Process& EngineCore::process(NodeId u, InstanceId instance) {
  return const_cast<Process&>(std::as_const(*this).process(u, instance));
}

const Process& EngineCore::process(NodeId u, InstanceId instance) const {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instance_count() && !retired(instance) &&
               live_node(instance, u).process != nullptr);
  return *live_node(instance, u).process;
}

bool EngineCore::all_alive_decided() const {
  // A free slot's zeroed count passes, as a retired instance did.
  return std::all_of(pool_.begin(), pool_.end(),
                     [](const Instance& inst) {
                       return inst.undecided_alive == 0;
                     });
}

bool EngineCore::instance_all_decided(InstanceId instance) const {
  AMAC_EXPECTS(instance < instance_count());
  return retired(instance) || live_instance(instance).undecided_alive == 0;
}

}  // namespace amac::mac
