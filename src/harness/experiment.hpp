// Shared experiment plumbing for the bench binaries and integration tests:
// input patterns, id assignments, process factories for every algorithm in
// the library, and a one-call consensus runner.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/anonymous.hpp"
#include "core/benor.hpp"
#include "core/flooding.hpp"
#include "core/stability.hpp"
#include "core/two_phase.hpp"
#include "core/wpaxos/wpaxos.hpp"
#include "mac/engine.hpp"
#include "mac/schedulers.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"

namespace amac::harness {

// ---- initial value patterns -------------------------------------------

[[nodiscard]] std::vector<mac::Value> inputs_all(std::size_t n, mac::Value v);
/// 0,1,0,1,... (worst case for agreement pressure).
[[nodiscard]] std::vector<mac::Value> inputs_alternating(std::size_t n);
/// First half 0, second half 1 (worst case for partition arguments).
[[nodiscard]] std::vector<mac::Value> inputs_split(std::size_t n);
[[nodiscard]] std::vector<mac::Value> inputs_random(std::size_t n,
                                                    util::Rng& rng);
/// Arbitrary-domain inputs in [0, limit) — for the general-value consensus
/// supported by wPAXOS and the flooding baseline (binary is the paper's
/// scope; PAXOS generalizes for free at an O(b)-bits message cost).
[[nodiscard]] std::vector<mac::Value> inputs_multivalued(std::size_t n,
                                                         mac::Value limit,
                                                         util::Rng& rng);

// ---- id assignments ----------------------------------------------------

/// ids[index] == index.
[[nodiscard]] std::vector<std::uint64_t> identity_ids(std::size_t n);
/// A random permutation of 0..n-1: moves the eventual wPAXOS leader (the
/// max id) to a random position in the topology.
[[nodiscard]] std::vector<std::uint64_t> permuted_ids(std::size_t n,
                                                      util::Rng& rng);

// ---- process factories -------------------------------------------------

[[nodiscard]] mac::ProcessFactory two_phase_factory(
    std::vector<mac::Value> inputs, bool literal_r2_check = false);

[[nodiscard]] mac::ProcessFactory flooding_factory(
    std::vector<mac::Value> inputs, std::size_t pairs_per_message = 2);

[[nodiscard]] mac::ProcessFactory wpaxos_factory(
    std::vector<mac::Value> inputs, std::vector<std::uint64_t> ids,
    core::wpaxos::WPaxosConfig config = {});

[[nodiscard]] mac::ProcessFactory anonymous_factory(
    std::vector<mac::Value> inputs, std::uint32_t diameter);

[[nodiscard]] mac::ProcessFactory stability_factory(
    std::vector<mac::Value> inputs, std::uint32_t diameter,
    std::vector<std::uint64_t> ids, std::size_t pairs_per_message = 2);

/// Ben-Or randomized consensus (crash-tolerant, f < n/2); per-node coin
/// seeds are derived from `seed`.
[[nodiscard]] mac::ProcessFactory benor_factory(std::vector<mac::Value> inputs,
                                                std::size_t f,
                                                std::uint64_t seed);

// ---- algorithm dispatch ------------------------------------------------
//
// Uniform handle on every consensus algorithm in the library, so sweeps
// (the fuzz generator, benches, tests) can quantify over "all algorithms"
// instead of hand-listing factories. Each enumerator's model assumptions
// (topology class, scheduler class, crash tolerance) are documented in the
// algorithm's own header; fuzz::kEnvelopes (fuzz/scenario.hpp) is the one
// table that encodes which combinations the guarantees cover, one row per
// enumerator.

enum class Algorithm : std::uint8_t {
  kTwoPhase = 0,   ///< clique, no crashes; fuzz::kEnvelopes row 0
  kFlooding = 1,   ///< any connected graph, knows n; kEnvelopes row 1
  kWPaxos = 2,     ///< safe always, live without crashes; kEnvelopes row 2
  kAnonymous = 3,  ///< synchronous only (Theorem 3.3); kEnvelopes row 3
  kStability = 4,  ///< synchronous only (Theorem 3.9); kEnvelopes row 4
  kBenOr = 5,      ///< clique, f < n/2 crashes; kEnvelopes row 5
};

inline constexpr std::size_t kAlgorithmCount = 6;

/// Spec and report names, indexed by enumerator value. Every entry is a
/// string literal, so its data() is NUL-terminated.
inline constexpr std::array<std::string_view, kAlgorithmCount> kAlgorithmNames =
    {"two_phase", "flooding", "wpaxos", "anonymous", "stability", "benor"};

[[nodiscard]] const char* algorithm_name(Algorithm a);
[[nodiscard]] std::optional<Algorithm> algorithm_from_name(
    std::string_view name);

/// Everything any algorithm's factory might need; unused fields are ignored
/// per algorithm (e.g. `diameter` only matters to the D-knowledge ones).
struct AlgorithmParams {
  std::vector<mac::Value> inputs;
  std::vector<std::uint64_t> ids;  ///< same size as inputs
  std::uint32_t diameter = 0;      ///< anonymous/stability: the D bound
  std::size_t benor_f = 0;         ///< BenOr: crash-tolerance parameter
  std::uint64_t seed = 0;          ///< BenOr: coin-seed derivation base
  core::wpaxos::WPaxosConfig wpaxos;
};

/// One factory constructor for the whole suite.
[[nodiscard]] mac::ProcessFactory algorithm_factory(Algorithm algorithm,
                                                    AlgorithmParams params);

/// Aggregates mac::ProtocolStats over every node of a (typically finished)
/// network: depth fields max-merge, totals sum — see Process::protocol_stats.
/// A pure const read, so collecting it can never perturb a run.
[[nodiscard]] mac::ProtocolStats collect_protocol_stats(
    const mac::Network& net);

/// Per-instance variant for multiplexed runs (mac/engine.hpp, "Instance
/// multiplexing"): aggregates over ONE instance's live processes. Crashed
/// nodes are skipped — instances added mid-run never construct processes
/// for already-crashed nodes. The instance must not be retired.
[[nodiscard]] mac::ProtocolStats collect_protocol_stats(
    const mac::Network& net, mac::InstanceId instance);

// ---- runner -------------------------------------------------------------

struct Outcome {
  verify::ConsensusVerdict verdict;
  mac::EngineStats stats;
  mac::Time end_time = 0;
};

/// Builds a network, runs it to all-decided (or max_time), and checks the
/// consensus properties against `inputs`.
[[nodiscard]] Outcome run_consensus(const net::Graph& graph,
                                    const mac::ProcessFactory& factory,
                                    mac::Scheduler& scheduler,
                                    const std::vector<mac::Value>& inputs,
                                    mac::Time max_time);

}  // namespace amac::harness
