#include "mac/engine_core.hpp"

#include <algorithm>
#include <utility>

namespace amac::mac {

void EngineCore::NodeContext::decide(Value v) {
  Instance& inst = core_->instances_[instance_];
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
  const auto id = static_cast<InstanceId>(instances_.size());
  const std::size_t n = nodes_.size();
  Instance& inst = instances_.emplace_back();
  if (spare_tables_.empty()) {
    // Table t starts at t * n; an empty graph's tables are all empty.
    inst.table = n == 0 ? 0 : static_cast<std::uint32_t>(tables_.size() / n);
    tables_.resize(tables_.size() + n);
  } else {
    inst.table = spare_tables_.back();
    spare_tables_.pop_back();
  }
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
  AMAC_EXPECTS(instance < instances_.size());
  Instance& inst = instances_[instance];
  if (inst.retired) return;
  inst.retired = true;
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    live_node(instance, u).process.reset();
  }
  inst.undecided_alive = 0;
  if (inst.table_refs == 0) recycle_table(instance);
}

void EngineCore::unpin_table(InstanceId instance) {
  Instance& inst = instances_[instance];
  AMAC_ENSURES(inst.table_refs > 0);
  if (--inst.table_refs == 0 && inst.retired) recycle_table(instance);
}

void EngineCore::recycle_table(InstanceId instance) {
  // Processes went at retire; a node that crashed while busy left its flag
  // set, and current_broadcast is stale.
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    live_node(instance, u) = InstanceNode{};
  }
  spare_tables_.push_back(std::exchange(instances_[instance].table, kNoTable));
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
  for (InstanceId i = 0; i < instances_.size(); ++i) start_instance(i);
}

void EngineCore::crash(NodeId u) {
  NodeState& st = nodes_[u];
  if (st.crashed) return;
  st.crashed = true;
  st.crash_time = now_;
  // Retired instances already left the count.
  for (InstanceId i = 0; i < instances_.size(); ++i) {
    Instance& inst = instances_[i];
    if (inst.retired || decisions_[i * nodes_.size() + u].decided) continue;
    AMAC_ENSURES(inst.undecided_alive > 0);
    if (--inst.undecided_alive == 0) completed_ = true;
  }
}

RunResult EngineCore::finish_run(bool met) {
  TrafficStats& traffic = stats_;
  traffic = TrafficStats{};
  for (const Instance& inst : instances_) {
    const TrafficStats& from = inst.stats;
    traffic.broadcasts += from.broadcasts;
    traffic.dropped_busy += from.dropped_busy;
    traffic.deliveries += from.deliveries;
    traffic.acks += from.acks;
    traffic.payload_bytes += from.payload_bytes;
    traffic.max_payload_bytes =
        std::max(traffic.max_payload_bytes, from.max_payload_bytes);
    traffic.drops += from.drops;
    traffic.duplicates += from.duplicates;
  }
  return RunResult{met, now_};
}

const Decision& EngineCore::decision(NodeId u, InstanceId instance) const {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  return decisions_[instance * nodes_.size() + u];
}

bool EngineCore::crashed(NodeId u) const {
  AMAC_EXPECTS(u < nodes_.size());
  return nodes_[u].crashed;
}

const InstanceStats& EngineCore::instance_stats(InstanceId instance) const {
  AMAC_EXPECTS(instance < instances_.size());
  return instances_[instance].stats;
}

Process& EngineCore::process(NodeId u, InstanceId instance) {
  return const_cast<Process&>(std::as_const(*this).process(u, instance));
}

const Process& EngineCore::process(NodeId u, InstanceId instance) const {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  AMAC_EXPECTS(has_table(instance) &&
               live_node(instance, u).process != nullptr);
  return *live_node(instance, u).process;
}

bool EngineCore::all_alive_decided() const {
  return std::all_of(instances_.begin(), instances_.end(),
                     [](const Instance& inst) {
                       return inst.undecided_alive == 0;
                     });
}

bool EngineCore::instance_all_decided(InstanceId instance) const {
  AMAC_EXPECTS(instance < instances_.size());
  return instances_[instance].undecided_alive == 0;
}

}  // namespace amac::mac
