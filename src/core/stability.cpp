#include "core/stability.hpp"

#include <algorithm>

namespace amac::core {

StabilityConsensus::StabilityConsensus(std::uint64_t id,
                                       std::uint32_t diameter,
                                       mac::Value initial_value)
    : id_(id), diameter_(diameter), value_(initial_value) {
  AMAC_EXPECTS(initial_value == 0 || initial_value == 1);
}

void StabilityConsensus::on_start(mac::Context& ctx) {
  known_[id_] = value_;
  outbox_.emplace_back(id_, value_);
  send_batch(ctx);
}

void StabilityConsensus::send_batch(mac::Context& ctx) {
  // Phases are paced by acks: a batch (possibly empty — a heartbeat that
  // keeps the quiet counter advancing) is broadcast each phase.
  util::Writer w;
  const std::size_t count = std::min(mac::kPairsPerMessage, outbox_.size());
  w.put_uvarint(count);
  for (std::size_t i = 0; i < count; ++i) {
    w.put_uvarint(outbox_[i].first);
    w.put_u8(static_cast<std::uint8_t>(outbox_[i].second));
  }
  outbox_.erase(outbox_.begin(), outbox_.begin() +
                                     static_cast<std::ptrdiff_t>(count));
  ctx.broadcast(std::move(w).take());
}

void StabilityConsensus::on_receive(const mac::Packet& packet,
                                    mac::Context& ctx) {
  (void)ctx;
  util::Reader r(packet.payload);
  const std::uint64_t count = r.get_uvarint();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = r.get_uvarint();
    const mac::Value v = r.get_u8();
    if (!known_.contains(id)) {
      known_[id] = v;
      outbox_.emplace_back(id, v);
      learned_this_phase_ = true;
    }
  }
  AMAC_ENSURES(r.exhausted());
}

void StabilityConsensus::on_ack(mac::Context& ctx) {
  if (decided_) return;
  if (learned_this_phase_) {
    if (quiet_ > 0) ++quiet_resets_;
    quiet_ = 0;
  } else {
    ++quiet_;
  }
  learned_this_phase_ = false;
  if (quiet_ >= diameter_ + 1 && outbox_.empty()) {
    decided_ = true;
    ctx.decide(known_.begin()->second);
    return;
  }
  send_batch(ctx);
}

std::unique_ptr<mac::Process> StabilityConsensus::clone() const {
  return std::make_unique<StabilityConsensus>(*this);
}

void StabilityConsensus::protocol_stats(mac::ProtocolStats& out) const {
  out.max_round = std::max<std::uint64_t>(out.max_round, quiet_);
  out.max_learned = std::max<std::uint64_t>(out.max_learned, known_.size());
  out.quiet_resets += quiet_resets_;
}

void StabilityConsensus::digest(util::Hasher& h) const {
  h.mix_u64(id_);
  h.mix_u64(diameter_);
  h.mix_i64(value_);
  h.mix_bool(decided_);
  h.mix_u64(quiet_);
  h.mix_bool(learned_this_phase_);
  h.mix_u64(known_.size());
  for (const auto& [id, v] : known_) {
    h.mix_u64(id);
    h.mix_i64(v);
  }
  h.mix_u64(outbox_.size());
  for (const auto& [id, v] : outbox_) {
    h.mix_u64(id);
    h.mix_i64(v);
  }
}

}  // namespace amac::core
