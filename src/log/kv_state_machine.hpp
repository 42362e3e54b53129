// Deterministic key-value state machine fed by the replicated log.
//
// Replication correctness reduces to: every replica applies the SAME ops
// in the SAME order. The fold digest pins exactly that — it mixes each
// applied (index, key, value) in application order and nothing else, so
// two services that decided their slots differently (batched vs naive,
// different windows, different lease lengths) still produce bit-equal
// digests as long as the decided log linearizes the same client stream.
// The table itself is a hash map: nothing observes its iteration order.
#pragma once

#include <cstddef>
#include <unordered_map>

#include "log/workload.hpp"
#include "util/hash.hpp"

namespace amac::log {

class KvStateMachine {
 public:
  /// Applies one decided op. `index` is the op's global position in the
  /// client stream; ops MUST be applied in ascending index order with no
  /// gaps (the log's apply loop guarantees this; AMAC_EXPECTS pins it).
  void apply(std::size_t index, const ClientOp& op);

  [[nodiscard]] std::size_t applied() const { return applied_; }

  /// Order-sensitive fold of every applied op: the replica-equality pin.
  [[nodiscard]] std::uint64_t digest() const { return fold_.digest(); }

  /// Current value of `key` (0 if never written); table reads for tests.
  [[nodiscard]] std::uint32_t get(std::uint32_t key) const;
  [[nodiscard]] std::size_t table_size() const { return kv_.size(); }

 private:
  std::unordered_map<std::uint32_t, std::uint32_t> kv_;
  util::Hasher fold_;
  std::size_t applied_ = 0;
};

}  // namespace amac::log
