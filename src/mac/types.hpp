// Core value types of the abstract MAC layer model (paper §2).
#pragma once

#include <cstdint>
#include <limits>

#include "net/graph.hpp"
#include "util/serde.hpp"

namespace amac::mac {

/// Virtual time in ticks. Local computation is instantaneous (paper §2);
/// only message receive/ack scheduling advances time.
using Time = std::uint64_t;

inline constexpr Time kForever = std::numeric_limits<Time>::max();

/// A message as observed by a receiver: the sender plus the payload bytes.
/// The model gives receivers the sender's link-layer identity (messages come
/// from a neighbor); algorithms that must be anonymous simply never put ids
/// in their payloads and never read `sender` (enforced by code review +
/// the Figure 1 indistinguishability test, which would fail if they did).
///
/// `payload` is a reference into the broadcast's engine-owned flight (or the
/// caller's buffer, for hand-driven contexts): a delivery hands the receiver
/// a view, not a copy, so the hot delivery path performs no allocation. The
/// reference is valid for the whole on_receive callback, including across
/// the callback's own broadcasts (which may grow the engine's flight table
/// but never move a live flight), and no longer; a process that wants to
/// keep the bytes copies them explicitly.
struct Packet {
  NodeId sender = kNoNode;
  const util::Buffer& payload;
  /// False when the packet arrived over a best-effort edge of the
  /// unreliable overlay (the dual-graph abstract MAC layer model of [29],
  /// the paper's first future-work direction). Reliable-graph deliveries
  /// are always true.
  bool reliable = true;
};

/// Binary consensus value (paper §2 studies binary consensus).
using Value = int;

/// Identifies one protocol instance multiplexed over a Network (see the
/// "Instance multiplexing" section of engine.hpp). Instance 0 is the
/// implicit default everywhere, so single-instance code never mentions it.
using InstanceId = std::uint32_t;

}  // namespace amac::mac
