// Flooding gather-all consensus — the paper's O(n * F_ack) baseline.
//
// §1/§4.2 argue that combining consensus logic with "a basic flooding
// algorithm" costs O(n * F_ack), because a bottleneck node may have to
// forward Omega(n) (id, value) pairs while each message carries only O(1)
// of them. This class is that baseline, built honestly: it knows n, floods
// every (id, value) pair it learns at most mac::kPairsPerMessage (constant)
// per broadcast, and decides the value of the smallest id once all n pairs
// are known. bench_crossover measures it against wPAXOS.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "mac/process.hpp"

namespace amac::core {

class FloodingConsensus final : public mac::Process {
 public:
  /// Knowledge: own unique id, n, initial value.
  FloodingConsensus(std::uint64_t id, std::size_t n, mac::Value initial_value);

  void on_start(mac::Context& ctx) override;
  void on_receive(const mac::Packet& packet, mac::Context& ctx) override;
  void on_ack(mac::Context& ctx) override;
  [[nodiscard]] std::unique_ptr<mac::Process> clone() const override;
  void digest(util::Hasher& h) const override;
  void protocol_stats(mac::ProtocolStats& out) const override;

  [[nodiscard]] std::size_t known_count() const { return known_.size(); }

 private:
  void learn(std::uint64_t id, mac::Value v, mac::Context& ctx);
  void maybe_send(mac::Context& ctx);
  void maybe_decide(mac::Context& ctx);

  std::uint64_t id_;
  std::size_t n_;
  mac::Value value_;

  std::map<std::uint64_t, mac::Value> known_;
  std::deque<std::pair<std::uint64_t, mac::Value>> outbox_;
  bool decided_ = false;
};

}  // namespace amac::core
