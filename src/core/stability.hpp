// StabilityConsensus — the natural no-knowledge-of-n candidate that
// Theorem 3.9 kills.
//
// Has unique ids and knows D but NOT n (the knowledge Theorem 3.9 allows).
// Gather-and-stabilize: flood (id, value) pairs (mac::kPairsPerMessage
// per message), and decide the smallest known id's value after D+1
// consecutive acked phases in which nothing new was learned and nothing is
// left to forward. Under the synchronous scheduler on a standalone line L_D
// this is correct: quiet phases can only start after the far end's pair has
// crossed the line.
//
// bench_thm39_no_n runs it on Figure 2: standalone L_D (correct) vs the two
// L_D copies embedded in K_D under the semi-synchronous scheduler, where
// both copies run the exact standalone execution (the bridge endpoint w's
// messages are held back) and decide their own values — agreement violation
// inside a network whose diameter is still D, so knowing D does not help.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "mac/process.hpp"

namespace amac::core {

class StabilityConsensus final : public mac::Process {
 public:
  /// Knowledge: own unique id, diameter bound, initial value. No n.
  StabilityConsensus(std::uint64_t id, std::uint32_t diameter,
                     mac::Value initial_value);

  void on_start(mac::Context& ctx) override;
  void on_receive(const mac::Packet& packet, mac::Context& ctx) override;
  void on_ack(mac::Context& ctx) override;
  [[nodiscard]] std::unique_ptr<mac::Process> clone() const override;
  void digest(util::Hasher& h) const override;
  void protocol_stats(mac::ProtocolStats& out) const override;

  [[nodiscard]] std::size_t known_count() const { return known_.size(); }
  [[nodiscard]] std::uint64_t quiet_resets() const { return quiet_resets_; }

 private:
  void send_batch(mac::Context& ctx);

  std::uint64_t id_;
  std::uint32_t diameter_;
  mac::Value value_;

  std::map<std::uint64_t, mac::Value> known_;
  std::deque<std::pair<std::uint64_t, mac::Value>> outbox_;
  std::uint32_t quiet_ = 0;
  bool learned_this_phase_ = false;
  bool decided_ = false;
  /// How often late learning reset a NONZERO quiet counter: a pure
  /// observability counter (coverage dimension v5), deliberately kept out
  /// of digest() — the digest contract is behavioral equivalence, and two
  /// behaviorally identical executions must hash identically whether or
  /// not stats were ever read.
  std::uint64_t quiet_resets_ = 0;
};

}  // namespace amac::core
