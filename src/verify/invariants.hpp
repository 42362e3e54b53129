// Runtime invariant monitors for wPAXOS.
//
// Lemma 4.2 (response-count conservation): for any proposition p, the count
// of affirmative responses the proposer has consumed, c(p), can never exceed
// a(p), the number of acceptors that affirmed p. We monitor the sharper
// step-wise form from the paper's proof: at every step,
//     c(p) + queued(p) + in_flight(p) <= responded(p),
// where queued sums matching counts in acceptor response queues, in_flight
// sums matching counts in messages currently addressed to their next hop,
// and responded counts acceptors whose log shows an affirmative response to
// p. (responded(p) <= a(p), so this implies the lemma's invariant.)
//
// Lemma 4.4 (bounded tags): proposal-number tags stay polynomial in n. This
// monitor does not track them: the largest tag and the change events that
// bound it are ProtocolStats::max_round and ::change_events, read through
// harness::collect_protocol_stats.
//
// Reliable-delivery caveat: Lemma 4.2's accounting assumes the abstract
// MAC layer's delivery guarantee. Under a non-empty LinkFaultPlan a
// dropped frame can carry a queued response count out of existence (the
// lemma's "in flight" term silently shrinks), and a duplicated proposition
// can legitimately raise responded(p) between two checks — either way the
// step-wise inequality is no longer a theorem of the paper's model. The
// fuzz harness therefore stands the monitor down whenever a fault plan is
// installed (see run_on_engine in fuzz/fuzzer.cpp); the agreement/validity
// oracles still run unconditionally.
#pragma once

#include <string>
#include <vector>

#include "core/wpaxos/wpaxos.hpp"
#include "mac/engine.hpp"

namespace amac::verify {

class ResponseConservationMonitor {
 public:
  /// `index_to_id` maps engine node index -> wPAXOS algorithm id. Every
  /// process in the network must be a WPaxos built with
  /// config.track_responses = true.
  explicit ResponseConservationMonitor(std::vector<std::uint64_t> index_to_id);

  /// Checks the invariant for every currently active proposition. Call from
  /// Network::set_post_event_hook.
  void check(mac::Network& net);

  [[nodiscard]] bool violated() const { return violated_; }
  [[nodiscard]] const std::string& report() const { return report_; }
  [[nodiscard]] std::uint64_t checks_performed() const { return checks_; }

 private:
  std::vector<std::uint64_t> index_to_id_;
  bool violated_ = false;
  std::string report_;
  std::uint64_t checks_ = 0;
};

}  // namespace amac::verify
