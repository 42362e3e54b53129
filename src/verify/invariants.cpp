#include "verify/invariants.hpp"

#include <sstream>

namespace amac::verify {

using core::wpaxos::AcceptorResponse;
using core::wpaxos::WireEnvelope;
using core::wpaxos::WPaxos;

ResponseConservationMonitor::ResponseConservationMonitor(
    std::vector<std::uint64_t> index_to_id)
    : index_to_id_(std::move(index_to_id)) {}

void ResponseConservationMonitor::check(mac::Network& net) {
  if (violated_) return;
  ++checks_;
  const std::size_t n = net.node_count();
  AMAC_EXPECTS(index_to_id_.size() == n);

  // For every node with an active proposition, verify conservation.
  for (NodeId pu = 0; pu < n; ++pu) {
    const auto* proposer = dynamic_cast<const WPaxos*>(&net.process(pu));
    AMAC_EXPECTS(proposer != nullptr);
    const auto snap = proposer->proposer_snapshot();
    if (!snap.active) continue;

    const auto matches = [&](const AcceptorResponse& r) {
      return r.positive && r.pn == snap.pn && r.stage == snap.stage;
    };

    std::uint64_t queued = 0;
    std::uint64_t responded = 0;
    for (NodeId u = 0; u < n; ++u) {
      const auto* node = dynamic_cast<const WPaxos*>(&net.process(u));
      for (const auto& r : node->response_queue()) {
        if (matches(r)) queued += r.count;
      }
      if (node->responded_positive(snap.pn, snap.stage)) ++responded;
    }

    std::uint64_t in_flight = 0;
    net.for_each_in_flight([&](NodeId /*sender*/, NodeId receiver,
                               const util::Buffer& payload) {
      const WireEnvelope env = WireEnvelope::decode(payload);
      if (!env.body.response) return;
      const AcceptorResponse& r = *env.body.response;
      // Only the addressed next hop will consume the response; copies to
      // other neighbors are ignored on receipt.
      if (matches(r) && index_to_id_[receiver] == r.dest) {
        in_flight += r.count;
      }
    });

    if (snap.yes + queued + in_flight > responded) {
      violated_ = true;
      std::ostringstream os;
      os << "Lemma 4.2 violation at t=" << net.now() << ": proposer id "
         << index_to_id_[pu] << " pn=(" << snap.pn.tag << "," << snap.pn.id
         << ") stage=" << static_cast<int>(snap.stage)
         << ": c=" << snap.yes << " + queued=" << queued
         << " + in_flight=" << in_flight << " > responded=" << responded;
      report_ = os.str();
      return;
    }
  }
}

}  // namespace amac::verify
