#include "core/commit_flood.hpp"

#include "util/serde.hpp"

namespace amac::core {

CommitFlood::CommitFlood(bool leader, mac::Value value)
    : leader_(leader), value_(value) {
  AMAC_EXPECTS(value >= 0);
}

void CommitFlood::on_start(mac::Context& ctx) {
  if (!leader_) return;
  decided_ = true;
  ctx.decide(value_);
  relay_pending_ = true;
  relay(ctx);
}

void CommitFlood::on_receive(const mac::Packet& packet, mac::Context& ctx) {
  util::Reader r(packet.payload);
  const auto v = static_cast<mac::Value>(r.get_uvarint());
  AMAC_ENSURES(r.exhausted());
  if (!decided_) {
    decided_ = true;
    value_ = v;
    ctx.decide(v);
    relay_pending_ = true;  // re-flood once, so the wave crosses the graph
  }
  relay(ctx);
}

void CommitFlood::on_ack(mac::Context& ctx) { relay(ctx); }

void CommitFlood::relay(mac::Context& ctx) {
  if (!relay_pending_ || relayed_ || ctx.busy()) return;
  relayed_ = true;
  relay_pending_ = false;
  // The engine copies the payload into its flight, so one scratch buffer per
  // thread (fuzz soak shards run on threads) serves every relay.
  thread_local util::Buffer scratch;
  util::Writer w(std::move(scratch));
  w.put_uvarint(static_cast<std::uint64_t>(value_));
  scratch = std::move(w).take();
  ctx.broadcast(scratch);
}

std::unique_ptr<mac::Process> CommitFlood::clone() const {
  return std::make_unique<CommitFlood>(*this);
}

void CommitFlood::digest(util::Hasher& h) const {
  h.mix_bool(leader_);
  h.mix_i64(value_);
  h.mix_bool(decided_);
  h.mix_bool(relay_pending_);
  h.mix_bool(relayed_);
}

void CommitFlood::protocol_stats(mac::ProtocolStats& out) const {
  if (relayed_) out.proposals += 1;  // one dissemination broadcast per node
}

}  // namespace amac::core
