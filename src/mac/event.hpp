// The engine's event record and its total ordering contract.
//
// Every simulator event is a plain trivially-copyable value: no owning
// pointers, no refcounts. Deliver events reference their payload through a
// flight slot index (see engine.hpp) whose lifetime strictly covers the
// event's, so copying an Event during queue maintenance costs a handful of
// register moves instead of shared_ptr traffic.
//
// Ordering contract (identical for every queue implementation): events pop
// in ascending (t, kind, seq) order. `kind` breaks same-tick ties so that
// all deliveries precede acks (the abstract MAC layer guarantee that every
// neighbor receives a message no later than the sender's ack) and crashes
// come last at their tick (deliveries at the crash tick still occur). `seq`
// is a global push counter giving FIFO order within (t, kind).
#pragma once

#include <cstdint>

#include "mac/types.hpp"

namespace amac::mac {

/// Sentinel for "no flight slot" (ack and crash events carry no payload).
inline constexpr std::uint32_t kNoFlight = static_cast<std::uint32_t>(-1);

enum class EventKind : std::uint8_t { kDeliver = 0, kAck = 1, kCrash = 2 };

struct Event {
  Time t = 0;
  std::uint64_t seq = 0;           ///< FIFO tie-break within (t, kind)
  std::uint64_t broadcast_id = 0;  ///< deliver/ack: which broadcast
  std::uint32_t flight_slot = kNoFlight;  ///< deliver only: payload home
  NodeId node = kNoNode;  ///< receiver (deliver), sender (ack), crashee
  NodeId sender = kNoNode;                ///< deliver only
  /// Deliver/ack: the protocol instance that issued the broadcast (stored,
  /// not derived — an ack must find its instance's busy flag without an
  /// O(instances) scan). Crash events are node-level and leave it 0.
  InstanceId instance = 0;
  EventKind kind = EventKind::kDeliver;
  bool reliable = true;                   ///< deliver: edge class
  /// Copies this record stands for, with seqs seq .. seq+run-1 (calendar
  /// queue run-length entries, see CalendarQueue::push_run). A popped
  /// event is always one copy; its `run` says how many copies its entry
  /// still held, counting itself.
  std::uint32_t run = 1;
};

// `run` lives in what was tail padding: the record stays one 48-byte value.
static_assert(sizeof(Event) == 48);

/// True when `a` must pop strictly after `b` (min-heap comparator).
[[nodiscard]] constexpr bool event_after(const Event& a, const Event& b) {
  if (a.t != b.t) return a.t > b.t;
  if (a.kind != b.kind) return a.kind > b.kind;
  return a.seq > b.seq;
}

struct EventAfter {
  [[nodiscard]] constexpr bool operator()(const Event& a,
                                          const Event& b) const {
    return event_after(a, b);
  }
};

}  // namespace amac::mac
