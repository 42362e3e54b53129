#include "verify/checker.hpp"

#include <algorithm>
#include <sstream>

namespace amac::verify {

std::string ConsensusVerdict::summary() const {
  std::ostringstream os;
  os << (termination ? "terminated" : "NOT-terminated") << ", "
     << (agreement ? "agreement" : "AGREEMENT-VIOLATED") << ", "
     << (validity ? "valid" : "VALIDITY-VIOLATED");
  if (decision) os << ", decided " << *decision << " by t=" << last_decision;
  return os.str();
}

void ConsensusVerdict::digest(util::Hasher& h) const {
  h.mix_bool(termination);
  h.mix_bool(agreement);
  h.mix_bool(validity);
  h.mix_bool(decision.has_value());
  h.mix_i64(decision.value_or(-1));
  h.mix_u64(first_decision);
  h.mix_u64(last_decision);
}

LogPrefixVerdict check_log_prefix(const mac::Network& net,
                                  const std::vector<mac::InstanceId>& slots) {
  LogPrefixVerdict v;
  const std::size_t count = net.node_count();

  // Longest contiguous decided prefix common to every live replica. A hole
  // ends a replica's prefix even when later slots decided — order is the
  // property under judgment, so nothing past a gap may count.
  std::size_t common = slots.size();
  bool any_live = false;
  for (NodeId u = 0; u < count; ++u) {
    if (net.crashed(u)) continue;
    any_live = true;
    std::size_t p = 0;
    while (p < slots.size() && net.decision(u, slots[p]).decided) ++p;
    common = std::min(common, p);
  }
  if (!any_live) {
    // Everyone crashed: no replica left to diverge. The per-slot oracle
    // still judges pre-crash decisions; this check is vacuously clean.
    v.consistent = true;
    return v;
  }
  v.common_prefix = common;

  bool first = true;
  NodeId first_node = 0;
  std::uint64_t want = 0;
  for (NodeId u = 0; u < count; ++u) {
    if (net.crashed(u)) continue;
    util::Hasher h;
    for (std::size_t slot = 0; slot < common; ++slot) {
      const mac::Decision& d = net.decision(u, slots[slot]);
      h.mix_u64(slot);
      h.mix_i64(d.value);
    }
    const std::uint64_t dig = h.digest();
    if (first) {
      first = false;
      first_node = u;
      want = dig;
    } else if (dig != want) {
      std::ostringstream os;
      os << "applied-prefix divergence over " << common
         << " common slots: node " << first_node << " digest " << std::hex
         << want << " vs node " << std::dec << u << " digest " << std::hex
         << dig;
      v.detail = os.str();
      return v;  // consistent stays false
    }
  }
  v.consistent = true;
  v.digest = want;
  return v;
}

}  // namespace amac::verify
