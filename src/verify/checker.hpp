// Consensus property oracle: agreement / validity / termination verdicts
// for a finished (or timed-out) run.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "mac/engine.hpp"

namespace amac::verify {

struct ConsensusVerdict {
  bool termination = false;  ///< every non-crashed node decided
  bool agreement = false;    ///< no two decided nodes decided differently
  bool validity = false;     ///< every decided value was someone's input
  std::optional<mac::Value> decision;  ///< the common value, if agreement
  mac::Time first_decision = 0;
  mac::Time last_decision = 0;  ///< decision time of the slowest decider

  [[nodiscard]] bool ok() const {
    return termination && agreement && validity;
  }
  [[nodiscard]] std::string summary() const;

  /// Folds the verdict into `h` (property bits, decided value, decision
  /// times). Differential harnesses combine this with the engine trace
  /// digest into one run fingerprint, so "same verdict" is part of the
  /// bit-identical replay check rather than a separate field-by-field diff.
  void digest(util::Hasher& h) const;
};

/// Per-instance oracle (design doc: "Instance multiplexing" in
/// mac/engine.hpp): inspects a network after `run` and checks the three
/// consensus properties against ONE instance's decisions and ITS initial
/// values (indexed by node). The replicated log (src/log/) checks every
/// decided slot with this — per-slot agreement and validity are what make
/// a log of consensus instances a correct log. `Net` is either engine
/// (mac::Network or mac::ReferenceNetwork), so differential replays
/// (fuzz/) assert verdict equality across engines, not just trace digests.
template <typename Net>
[[nodiscard]] ConsensusVerdict check_consensus(
    const Net& net, mac::InstanceId instance,
    const std::vector<mac::Value>& inputs) {
  AMAC_EXPECTS(inputs.size() == net.node_count());
  ConsensusVerdict v;
  v.termination = true;
  v.agreement = true;
  v.validity = true;

  const auto is_input = [&](mac::Value value) {
    return std::find(inputs.begin(), inputs.end(), value) != inputs.end();
  };
  bool any_decision = false;
  mac::Value common = -1;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    const mac::Decision& d = net.decision(u, instance);
    if (net.crashed(u)) continue;
    if (!d.decided) {
      v.termination = false;
      continue;
    }
    if (!is_input(d.value)) v.validity = false;
    if (!any_decision) {
      any_decision = true;
      common = d.value;
      v.first_decision = d.time;
      v.last_decision = d.time;
    } else {
      if (d.value != common) v.agreement = false;
      v.first_decision = std::min(v.first_decision, d.time);
      v.last_decision = std::max(v.last_decision, d.time);
    }
  }
  // Crashed nodes may have decided before crashing; agreement and validity
  // cover those decisions too (a decision is irrevocable the moment it is
  // made — a later crash cannot retract it).
  for (NodeId u = 0; u < net.node_count(); ++u) {
    const mac::Decision& d = net.decision(u, instance);
    if (net.crashed(u) && d.decided) {
      if (!is_input(d.value)) v.validity = false;
      if (any_decision && d.value != common) v.agreement = false;
      if (!any_decision) {
        any_decision = true;
        common = d.value;
      }
    }
  }
  if (any_decision && v.agreement) v.decision = common;
  return v;
}

/// The same oracle over instance 0, the single-instance default.
template <typename Net>
[[nodiscard]] ConsensusVerdict check_consensus(
    const Net& net, const std::vector<mac::Value>& inputs) {
  return check_consensus(net, mac::InstanceId{0}, inputs);
}

/// Replica-consistency verdict for a replicated-log run: the per-slot
/// oracle above proves each SLOT agreed, this one proves the LOG did — the
/// replicated-state-machine property that every live replica applied the
/// same command prefix in the same order.
struct LogPrefixVerdict {
  bool consistent = false;  ///< all live replicas' prefix digests equal
  std::size_t common_prefix = 0;  ///< slots every live replica has decided
  std::uint64_t digest = 0;  ///< the shared prefix digest (when consistent)
  std::string detail;        ///< mismatch description (when inconsistent)
};

/// Folds each live (non-crashed) replica's contiguous decided slot prefix —
/// (slot index, decided value) pairs in slot order — into a digest and
/// compares them over the longest prefix EVERY live replica has decided.
/// `slots[i]` is the instance that decided slot i; retired instances keep
/// their decisions readable (see "Instance multiplexing" in mac/engine.hpp),
/// so this is a pure post-run check needing no decide-time hooks. Crashed
/// replicas are exempt: their prefixes froze mid-run, and the per-slot
/// oracle already judges any decision they made before crashing.
[[nodiscard]] LogPrefixVerdict check_log_prefix(
    const mac::Network& net, const std::vector<mac::InstanceId>& slots);

}  // namespace amac::verify
