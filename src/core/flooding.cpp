#include "core/flooding.hpp"

#include <algorithm>

namespace amac::core {

namespace {

util::Buffer encode_pairs(
    const std::deque<std::pair<std::uint64_t, mac::Value>>& outbox) {
  util::Writer w;
  const std::size_t count = std::min(mac::kPairsPerMessage, outbox.size());
  w.put_uvarint(count);
  for (std::size_t i = 0; i < count; ++i) {
    w.put_uvarint(outbox[i].first);
    w.put_uvarint(static_cast<std::uint64_t>(outbox[i].second));
  }
  return std::move(w).take();
}

}  // namespace

FloodingConsensus::FloodingConsensus(std::uint64_t id, std::size_t n,
                                     mac::Value initial_value)
    : id_(id), n_(n), value_(initial_value) {
  AMAC_EXPECTS(n >= 1);
  AMAC_EXPECTS(initial_value >= 0);  // gather-all is value-agnostic
}

void FloodingConsensus::on_start(mac::Context& ctx) {
  known_[id_] = value_;
  outbox_.emplace_back(id_, value_);
  maybe_decide(ctx);
  maybe_send(ctx);
}

void FloodingConsensus::learn(std::uint64_t id, mac::Value v,
                              mac::Context& ctx) {
  if (known_.contains(id)) return;
  known_[id] = v;
  // Flood rule: rebroadcast every pair the first time it is seen.
  outbox_.emplace_back(id, v);
  maybe_decide(ctx);
}

void FloodingConsensus::on_receive(const mac::Packet& packet,
                                   mac::Context& ctx) {
  util::Reader r(packet.payload);
  const std::uint64_t count = r.get_uvarint();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = r.get_uvarint();
    const auto v = static_cast<mac::Value>(r.get_uvarint());
    learn(id, v, ctx);
  }
  AMAC_ENSURES(r.exhausted());
  maybe_send(ctx);
}

void FloodingConsensus::on_ack(mac::Context& ctx) { maybe_send(ctx); }

void FloodingConsensus::maybe_send(mac::Context& ctx) {
  if (ctx.busy() || outbox_.empty()) return;
  util::Buffer payload = encode_pairs(outbox_);
  const std::size_t sent = std::min(mac::kPairsPerMessage, outbox_.size());
  outbox_.erase(outbox_.begin(),
                outbox_.begin() + static_cast<std::ptrdiff_t>(sent));
  ctx.broadcast(std::move(payload));
}

void FloodingConsensus::maybe_decide(mac::Context& ctx) {
  if (decided_ || known_.size() < n_) return;
  decided_ = true;
  // Deterministic rule over the full input multiset: smallest id's value.
  ctx.decide(known_.begin()->second);
}

std::unique_ptr<mac::Process> FloodingConsensus::clone() const {
  return std::make_unique<FloodingConsensus>(*this);
}

void FloodingConsensus::protocol_stats(mac::ProtocolStats& out) const {
  out.max_learned = std::max<std::uint64_t>(out.max_learned, known_.size());
}

void FloodingConsensus::digest(util::Hasher& h) const {
  h.mix_u64(id_);
  h.mix_u64(n_);
  h.mix_i64(value_);
  h.mix_bool(decided_);
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
